//! Property tests: the runtime's Thompson-NFA regex engine agrees with a
//! transparent backtracking reference on a generated pattern subset, and
//! never panics on arbitrary input.
//!
//! Runs on the in-repo deterministic harness ([`gs_tests::prop`]); the
//! property assertions are unchanged from the original proptest suite.

use gs_runtime::udf::regex::Regex;
use gs_tests::backtrack_match;
use gs_tests::prop::{check, Gen};

/// Patterns over {a, b, ., *, ?, |, (), ^, $} — the subset the reference
/// matcher implements. Recursive with bounded depth, mirroring the
/// original `prop_recursive(3, 16, 4, ..)` tree.
fn arb_pattern_body(g: &mut Gen, depth: usize) -> String {
    if depth == 0 || g.usize(0..4) == 0 {
        return (*g.choice(&["a", "b", "c", "."])).to_string();
    }
    match g.usize(0..4) {
        0 => {
            // concat
            let a = arb_pattern_body(g, depth - 1);
            let b = arb_pattern_body(g, depth - 1);
            format!("{a}{b}")
        }
        1 => {
            // alternation (grouped to keep precedence unambiguous)
            let a = arb_pattern_body(g, depth - 1);
            let b = arb_pattern_body(g, depth - 1);
            format!("({a}|{b})")
        }
        2 => format!("({})*", arb_pattern_body(g, depth - 1)),
        _ => format!("({})?", arb_pattern_body(g, depth - 1)),
    }
}

fn arb_pattern(g: &mut Gen) -> String {
    let anchor_s = g.bool();
    let body = arb_pattern_body(g, 3);
    let anchor_e = g.bool();
    format!("{}{}{}", if anchor_s { "^" } else { "" }, body, if anchor_e { "$" } else { "" })
}

fn arb_hay(g: &mut Gen) -> Vec<u8> {
    g.vec_with(0..12, |g| *g.choice(b"abcx"))
}

#[test]
fn nfa_agrees_with_backtracker() {
    check("nfa_agrees_with_backtracker", 512, |g| {
        let pat = arb_pattern(g);
        let hay = arb_hay(g);
        let re = Regex::compile(&pat).expect("generated patterns are valid");
        let nfa = re.is_match(&hay);
        let reference = backtrack_match(&pat, &hay);
        assert_eq!(
            nfa,
            reference,
            "pattern `{}` over {:?}",
            pat,
            String::from_utf8_lossy(&hay)
        );
    });
}

#[test]
fn compile_never_panics() {
    check("compile_never_panics", 512, |g| {
        let pat = g.string_of(b"ab.()|*?+[]^$\\", 0..17);
        let _ = Regex::compile(&pat);
    });
}

#[test]
fn match_never_panics_on_arbitrary_bytes() {
    check("match_never_panics_on_arbitrary_bytes", 512, |g| {
        let pat = arb_pattern(g);
        let hay = g.bytes(0..64);
        let re = Regex::compile(&pat).expect("generated patterns are valid");
        let _ = re.is_match(&hay);
    });
}

#[test]
fn anchored_is_stricter() {
    check("anchored_is_stricter", 512, |g| {
        // ^p (resp. p$) can only match where p matches.
        let pat_core = arb_pattern(g);
        let pat = pat_core.trim_start_matches('^').trim_end_matches('$').to_string();
        let anchored = Regex::compile(&format!("^{pat}")).unwrap();
        let free = Regex::compile(&pat).unwrap();
        for hay in [&b"abcx"[..], b"xabc", b"", b"aaa", b"cba"] {
            if anchored.is_match(hay) {
                assert!(free.is_match(hay), "`^{pat}` matched but `{pat}` did not");
            }
        }
    });
}

#[test]
fn literal_patterns_equal_substring_search() {
    check("literal_patterns_equal_substring_search", 512, |g| {
        let lit = g.string_of(b"abc", 1..9);
        let hay = arb_hay(g);
        let re = Regex::compile(&lit).unwrap();
        let expected = hay.windows(lit.len()).any(|w| w == lit.as_bytes());
        assert_eq!(re.is_match(&hay), expected);
    });
}
