//! Small std-only helpers: order statistics, `/proc` parsers, a JSON
//! writer (the workspace is hermetic — no serde).

use std::fmt::Write as _;

/// Median of `values` (mean of the two middle elements for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The percentiles a latency distribution is reported at, ascending.
pub const PERCENTILES: [u32; 4] = [50, 90, 95, 99];

/// The highest of [`PERCENTILES`] that still has at least ten of `n`
/// samples beyond it (choosing-metrics §1); the median when none does.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // Whole-number arithmetic: `n * (1 - p/100) >= 10` without rounding.
    let p = PERCENTILES
        .iter()
        .rev()
        .find(|&&p| n as u64 * u64::from(100 - p) >= 1000);
    f64::from(*p.unwrap_or(&50))
}

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `utime + stime` of the process in clock ticks, parsed from the text
/// of `/proc/self/stat`. The command name (field 2) may contain spaces
/// and parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `Vm*:` line of `/proc/self/status`, in kB.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == "model name").then(|| v.trim().to_string())
    })
}

/// Filesystem type of the longest mount point containing `path`, from
/// the text of `/proc/mounts`.
pub fn parse_fs_type(mounts: &str, path: &str) -> Option<String> {
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_ascii_whitespace();
            let (_dev, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            let inside = path == mnt
                || mnt == "/"
                || path.strip_prefix(mnt).is_some_and(|r| r.starts_with('/'));
            inside.then(|| (mnt.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// Process CPU seconds so far (`utime + stime`; Linux ticks are 100 Hz).
/// 0 where `/proc` is unavailable.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 / 100.0)
}

/// `VmRSS` / `VmHWM` of this process in MiB (0 where unavailable).
pub fn process_mem_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, key))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// A JSON value; objects keep insertion order.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            // Shortest round-trip form: every measured digit survives.
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_selection_needs_ten_samples_beyond() {
        // 1% of 1000 is exactly ten samples: p99 is supported.
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(999), 95.0);
        // 5% of 200 = 10.
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(199), 90.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(99), 50.0);
        assert_eq!(highest_supported_percentile(20), 50.0);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(highest_supported_percentile(5), 50.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let line = "1234 (gs bench) (x)) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 4 0 100 1 2";
        assert_eq!(parse_stat_cpu_ticks(line), Some(300));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (a) S 1 2"), None);
    }

    #[test]
    fn status_and_cpuinfo_parsers() {
        let status = "Name:\tgsbench\nVmHWM:\t  204800 kB\nVmRSS:\t    1024 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(204800));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1024));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        let cpuinfo = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\nmodel name\t: other\n";
        assert_eq!(
            parse_cpu_model(cpuinfo).as_deref(),
            Some("Example CPU @ 2.0GHz")
        );
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }

    #[test]
    fn fs_type_picks_longest_containing_mount() {
        let mounts = "overlay / overlay rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\n\
                      /dev/vda /root/repo ext4 rw 0 0\n";
        assert_eq!(
            parse_fs_type(mounts, "/dev/shm/x").as_deref(),
            Some("tmpfs")
        );
        assert_eq!(
            parse_fs_type(mounts, "/root/repo/target").as_deref(),
            Some("ext4")
        );
        assert_eq!(
            parse_fs_type(mounts, "/root/repository").as_deref(),
            Some("overlay")
        );
        assert_eq!(parse_fs_type("", "/x"), None);
    }

    #[test]
    fn json_escapes_and_keeps_order() {
        let j = Json::obj(vec![
            ("b", Json::Num(1.5)),
            ("a", Json::str("q\"\\\n")),
            (
                "n",
                Json::Arr(vec![Json::Int(3), Json::Null, Json::Bool(true)]),
            ),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"b": 1.5, "a": "q\"\\\n", "n": [3, null, true]}"#
        );
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }
}
