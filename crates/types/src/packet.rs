//! Packet headers — points in the 5-dimensional classification space.

use crate::dimension::{Dimension, DimensionSpec, FIELD_COUNT};
use serde::Serialize;

/// A packet header reduced to the five classification fields.
///
/// The header is stored as one `u32` per dimension in field order
/// (src IP, dst IP, src port, dst port, protocol).  For the real 5-tuple
/// geometry the port and protocol values simply occupy the low bits of their
/// word.  Use the convenience constructors for readable call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct PacketHeader {
    /// Field values in dimension order.
    pub fields: [u32; FIELD_COUNT],
}

impl PacketHeader {
    /// Builds a header directly from the five field values in field order.
    #[inline]
    pub const fn from_fields(fields: [u32; FIELD_COUNT]) -> PacketHeader {
        PacketHeader { fields }
    }

    /// Builds a real 5-tuple header.
    #[inline]
    pub fn five_tuple(
        src_ip: u32,
        dst_ip: u32,
        src_port: u16,
        dst_port: u16,
        protocol: u8,
    ) -> PacketHeader {
        PacketHeader {
            fields: [
                src_ip,
                dst_ip,
                u32::from(src_port),
                u32::from(dst_port),
                u32::from(protocol),
            ],
        }
    }

    /// Value of the header in dimension `dim`.
    #[inline]
    pub fn field(&self, dim: Dimension) -> u32 {
        self.fields[dim.index()]
    }

    /// Source IP address.
    #[inline]
    pub fn src_ip(&self) -> u32 {
        self.fields[0]
    }

    /// Destination IP address.
    #[inline]
    pub fn dst_ip(&self) -> u32 {
        self.fields[1]
    }

    /// Source port.
    #[inline]
    pub fn src_port(&self) -> u16 {
        self.fields[2] as u16
    }

    /// Destination port.
    #[inline]
    pub fn dst_port(&self) -> u16 {
        self.fields[3] as u16
    }

    /// Protocol number.
    #[inline]
    pub fn protocol(&self) -> u8 {
        self.fields[4] as u8
    }

    /// The 8 most significant bits of every dimension, as used by the
    /// hardware accelerator's index computation (mask → shift → add).
    #[inline]
    pub fn msb8(&self, spec: &DimensionSpec) -> [u8; FIELD_COUNT] {
        let mut out = [0u8; FIELD_COUNT];
        for d in Dimension::ALL {
            out[d.index()] = spec.msb8(d, self.fields[d.index()]);
        }
        out
    }
}

impl std::fmt::Display for PacketHeader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ip = |v: u32| {
            format!(
                "{}.{}.{}.{}",
                (v >> 24) & 0xFF,
                (v >> 16) & 0xFF,
                (v >> 8) & 0xFF,
                v & 0xFF
            )
        };
        write!(
            f,
            "{}:{} -> {}:{} proto {}",
            ip(self.src_ip()),
            self.src_port(),
            ip(self.dst_ip()),
            self.dst_port(),
            self.protocol()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_tuple_accessors() {
        let p = PacketHeader::five_tuple(0xC0A8_0001, 0x0A00_0002, 1234, 80, 6);
        assert_eq!(p.src_ip(), 0xC0A8_0001);
        assert_eq!(p.dst_ip(), 0x0A00_0002);
        assert_eq!(p.src_port(), 1234);
        assert_eq!(p.dst_port(), 80);
        assert_eq!(p.protocol(), 6);
        assert_eq!(p.field(Dimension::DstPort), 80);
    }

    #[test]
    fn msb8_extraction() {
        let p = PacketHeader::five_tuple(0xAB12_3456, 0xCD00_0000, 0x1F00, 0x0080, 17);
        let spec = DimensionSpec::FIVE_TUPLE;
        let msb = p.msb8(&spec);
        assert_eq!(msb[0], 0xAB);
        assert_eq!(msb[1], 0xCD);
        assert_eq!(msb[2], 0x1F);
        assert_eq!(msb[3], 0x00);
        assert_eq!(msb[4], 17);
    }

    #[test]
    fn display_is_human_readable() {
        let p = PacketHeader::five_tuple(0xC0A8_0001, 0x0A00_0002, 1234, 80, 6);
        assert_eq!(p.to_string(), "192.168.0.1:1234 -> 10.0.0.2:80 proto 6");
    }
}
