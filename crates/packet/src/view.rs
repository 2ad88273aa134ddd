//! Zero-copy parsed view over a captured packet.
//!
//! A [`PacketView`] is built once per captured packet and caches the layer
//! headers and payload offset so that field accessors are O(1) lookups into
//! already-decoded structs. Payload accessors return [`bytes::Bytes`]
//! slices sharing the capture buffer.

use crate::bgp::BgpUpdate;
use crate::capture::{CapPacket, LinkType};
use crate::ether::{EtherHeader, ETHERTYPE_IPV4, ETHERTYPE_IPV6};
use crate::icmp::IcmpHeader;
use crate::ip::{Ipv4Header, PROTO_ICMP, PROTO_TCP, PROTO_UDP};
use crate::ipv6::Ipv6Header;
use crate::netflow::NetflowRecord;
use crate::tcp::TcpHeader;
use crate::udp::UdpHeader;
use bytes::Bytes;

/// Parsed transport layer of an IP packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// TCP segment with the byte offset of its payload within the frame.
    Tcp(TcpHeader, usize),
    /// UDP datagram with the byte offset of its payload within the frame.
    Udp(UdpHeader, usize),
    /// ICMP message.
    Icmp(IcmpHeader),
    /// Some other or truncated transport protocol.
    Other,
}

/// Parsed network layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Network {
    /// IPv4 packet.
    V4(Ipv4Header),
    /// IPv6 packet.
    V6(Ipv6Header),
    /// Not an IP packet (or truncated beyond recognition).
    Other,
}

/// A captured packet together with its decoded layers.
///
/// Decoding never fails: malformed or truncated layers simply leave the
/// corresponding layer as `Other`/`None`, and the field accessors return
/// `None`, causing the tuple to be discarded by the protocol prefilter —
/// the behaviour a capture pipeline needs when fed garbage off the wire.
#[derive(Debug, Clone)]
pub struct PacketView {
    /// The raw capture record.
    pub cap: CapPacket,
    /// Decoded Ethernet header, when the link type is Ethernet.
    pub ether: Option<EtherHeader>,
    /// Decoded network layer.
    pub net: Network,
    /// Decoded transport layer.
    pub transport: Transport,
    /// Decoded Netflow record, when the link type is `NetflowRecord`.
    pub netflow: Option<NetflowRecord>,
    /// Decoded BGP update, when the link type is `BgpUpdate`.
    pub bgp: Option<BgpUpdate>,
}

impl PacketView {
    /// Decode `cap` into a view. Runs every layer decoder applicable to the
    /// capture's link type; failures degrade to `Other`/`None`.
    pub fn parse(cap: CapPacket) -> PacketView {
        let mut view = PacketView {
            cap,
            ether: None,
            net: Network::Other,
            transport: Transport::Other,
            netflow: None,
            bgp: None,
        };
        match view.cap.link {
            LinkType::Ethernet => {
                if let Ok(eh) = EtherHeader::decode(&view.cap.data) {
                    let l3 = crate::ether::HEADER_LEN;
                    view.ether = Some(eh);
                    match eh.ethertype {
                        ETHERTYPE_IPV4 => view.parse_ipv4(l3),
                        ETHERTYPE_IPV6 => view.parse_ipv6(l3),
                        _ => {}
                    }
                }
            }
            LinkType::RawIp => {
                match view.cap.data.first().map(|b| b >> 4) {
                    Some(4) => view.parse_ipv4(0),
                    Some(6) => view.parse_ipv6(0),
                    _ => {}
                }
            }
            LinkType::NetflowRecord => {
                view.netflow = NetflowRecord::decode(&view.cap.data).ok();
            }
            LinkType::BgpUpdate => {
                view.bgp = BgpUpdate::decode(&view.cap.data).ok();
            }
        }
        view
    }

    fn parse_ipv4(&mut self, l3: usize) {
        let Some(ip_bytes) = self.cap.data.get(l3..) else { return };
        let Ok(ih) = Ipv4Header::decode(ip_bytes) else { return };
        self.net = Network::V4(ih);
        // Do not parse the transport layer of non-first fragments: their
        // bytes are mid-stream payload, not a header.
        if ih.frag_offset() != 0 {
            return;
        }
        let l4 = l3 + usize::from(ih.header_len);
        self.parse_transport(ih.protocol, l4);
    }

    fn parse_ipv6(&mut self, l3: usize) {
        let Some(ip_bytes) = self.cap.data.get(l3..) else { return };
        let Ok(ih) = Ipv6Header::decode(ip_bytes) else { return };
        self.net = Network::V6(ih);
        let l4 = l3 + crate::ipv6::HEADER_LEN;
        self.parse_transport(ih.next_header, l4);
    }

    fn parse_transport(&mut self, proto: u8, l4: usize) {
        let Some(bytes) = self.cap.data.get(l4..) else { return };
        let transport = match proto {
            PROTO_TCP => match TcpHeader::decode(bytes) {
                Ok(th) => Transport::Tcp(th, l4 + usize::from(th.header_len)),
                Err(_) => Transport::Other,
            },
            PROTO_UDP => match UdpHeader::decode(bytes) {
                Ok(uh) => Transport::Udp(uh, l4 + crate::udp::HEADER_LEN),
                Err(_) => Transport::Other,
            },
            PROTO_ICMP => match IcmpHeader::decode(bytes) {
                Ok(ih) => Transport::Icmp(ih),
                Err(_) => Transport::Other,
            },
            _ => Transport::Other,
        };
        self.transport = transport;
    }

    /// The IPv4 header, if this is an IPv4 packet.
    #[inline]
    pub fn ipv4(&self) -> Option<&Ipv4Header> {
        match &self.net {
            Network::V4(h) => Some(h),
            _ => None,
        }
    }

    /// The IPv6 header, if this is an IPv6 packet.
    #[inline]
    pub fn ipv6(&self) -> Option<&Ipv6Header> {
        match &self.net {
            Network::V6(h) => Some(h),
            _ => None,
        }
    }

    /// IP version number (4 or 6), if IP at all.
    #[inline]
    pub fn ip_version(&self) -> Option<u8> {
        match self.net {
            Network::V4(_) => Some(4),
            Network::V6(_) => Some(6),
            Network::Other => None,
        }
    }

    /// IP protocol / next-header number.
    #[inline]
    pub fn ip_protocol(&self) -> Option<u8> {
        match self.net {
            Network::V4(h) => Some(h.protocol),
            Network::V6(h) => Some(h.next_header),
            Network::Other => None,
        }
    }

    /// The TCP header, if this is a (first-fragment) TCP packet.
    #[inline]
    pub fn tcp(&self) -> Option<&TcpHeader> {
        match &self.transport {
            Transport::Tcp(h, _) => Some(h),
            _ => None,
        }
    }

    /// The UDP header, if present.
    #[inline]
    pub fn udp(&self) -> Option<&UdpHeader> {
        match &self.transport {
            Transport::Udp(h, _) => Some(h),
            _ => None,
        }
    }

    /// The ICMP header, if present.
    #[inline]
    pub fn icmp(&self) -> Option<&IcmpHeader> {
        match &self.transport {
            Transport::Icmp(h) => Some(h),
            _ => None,
        }
    }

    /// Transport payload bytes (zero-copy slice of the capture buffer),
    /// for TCP and UDP packets. Returns an empty slice for header-only
    /// segments; `None` if there is no TCP/UDP transport layer.
    pub fn payload(&self) -> Option<Bytes> {
        let off = match self.transport {
            Transport::Tcp(_, off) | Transport::Udp(_, off) => off,
            _ => return None,
        };
        Some(if off >= self.cap.data.len() {
            Bytes::new()
        } else {
            self.cap.data.slice(off..)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FrameBuilder;

    #[test]
    fn parses_tcp_over_ethernet() {
        let frame = FrameBuilder::tcp(0x0a000001, 0xc0a80001, 1234, 80)
            .payload(b"GET / HTTP/1.1\r\n")
            .build_ethernet();
        let v = PacketView::parse(CapPacket::full(1_500_000_000, 0, LinkType::Ethernet, frame));
        assert_eq!(v.ip_version(), Some(4));
        assert_eq!(v.ip_protocol(), Some(PROTO_TCP));
        let tcp = v.tcp().unwrap();
        assert_eq!(tcp.dst_port, 80);
        assert_eq!(v.payload().unwrap().as_ref(), b"GET / HTTP/1.1\r\n");
        assert!(v.udp().is_none());
        assert!(v.icmp().is_none());
    }

    #[test]
    fn parses_udp_raw_ip() {
        let frame = FrameBuilder::udp(1, 2, 53, 53).payload(b"dns").build_raw_ip();
        let v = PacketView::parse(CapPacket::full(0, 1, LinkType::RawIp, frame));
        assert_eq!(v.ip_version(), Some(4));
        assert_eq!(v.udp().unwrap().src_port, 53);
        assert_eq!(v.payload().unwrap().as_ref(), b"dns");
    }

    #[test]
    fn garbage_degrades_gracefully() {
        let v = PacketView::parse(CapPacket::full(
            0,
            0,
            LinkType::Ethernet,
            Bytes::from_static(&[0xde, 0xad]),
        ));
        assert_eq!(v.ip_version(), None);
        assert!(v.payload().is_none());
        assert!(v.tcp().is_none());
    }

    #[test]
    fn snapped_payload_is_truncated_not_absent() {
        let frame = FrameBuilder::tcp(1, 2, 10, 80).payload(&[7u8; 100]).build_ethernet();
        let cap = CapPacket::full(0, 0, LinkType::Ethernet, frame).snap(14 + 20 + 20 + 10);
        let v = PacketView::parse(cap);
        assert_eq!(v.payload().unwrap().len(), 10);
    }

    #[test]
    fn non_first_fragment_has_no_transport() {
        let frame = FrameBuilder::tcp(1, 2, 10, 80)
            .payload(b"xxxx")
            .fragment(8, true)
            .build_ethernet();
        let v = PacketView::parse(CapPacket::full(0, 0, LinkType::Ethernet, frame));
        assert!(v.ipv4().unwrap().is_fragment());
        assert!(v.tcp().is_none());
    }

    #[test]
    fn netflow_link_type() {
        let rec = crate::netflow::NetflowRecord {
            src_addr: 1,
            dst_addr: 2,
            packets: 3,
            octets: 4,
            first: 5,
            last: 6,
            src_port: 7,
            dst_port: 8,
            tcp_flags: 0,
            protocol: 6,
            tos: 0,
            src_as: 0,
            dst_as: 0,
        };
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        let v = PacketView::parse(CapPacket::full(0, 0, LinkType::NetflowRecord, buf.into()));
        assert_eq!(v.netflow.unwrap().octets, 4);
        assert!(v.ipv4().is_none());
    }
}
