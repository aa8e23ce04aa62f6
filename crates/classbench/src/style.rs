//! Seed styles and their structural parameters.

use serde::Serialize;

/// The three ClassBench seed families used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SeedStyle {
    /// Access-control-list style (`acl1`): specific prefixes, exact services.
    Acl,
    /// Firewall style (`fw1`): many wildcards, heavy rule replication.
    Fw,
    /// IP-chain style (`ipc1`): a mixture of the two.
    Ipc,
}

impl SeedStyle {
    /// All styles, in the order Table 4 lists them.
    pub const ALL: [SeedStyle; 3] = [SeedStyle::Acl, SeedStyle::Fw, SeedStyle::Ipc];

    /// Short name matching the paper's ruleset naming (`acl1`, `fw1`, `ipc1`).
    pub fn name(self) -> &'static str {
        match self {
            SeedStyle::Acl => "acl1",
            SeedStyle::Fw => "fw1",
            SeedStyle::Ipc => "ipc1",
        }
    }

    /// The structural parameters of this style.
    pub(crate) fn parameters(self) -> StyleParameters {
        match self {
            SeedStyle::Acl => StyleParameters {
                src_wildcard_prob: 0.06,
                dst_wildcard_prob: 0.01,
                src_prefix_len_range: (16, 32),
                dst_prefix_len_range: (24, 32),
                prefix_pool_fraction: 0.35,
                src_port_any_prob: 0.92,
                dst_port_exact_prob: 0.75,
                dst_port_any_prob: 0.10,
                proto_any_prob: 0.05,
                arbitrary_range_prob: 0.02,
            },
            SeedStyle::Fw => StyleParameters {
                src_wildcard_prob: 0.22,
                dst_wildcard_prob: 0.12,
                src_prefix_len_range: (8, 32),
                dst_prefix_len_range: (8, 32),
                prefix_pool_fraction: 0.25,
                src_port_any_prob: 0.45,
                dst_port_exact_prob: 0.45,
                dst_port_any_prob: 0.20,
                proto_any_prob: 0.12,
                arbitrary_range_prob: 0.10,
            },
            SeedStyle::Ipc => StyleParameters {
                src_wildcard_prob: 0.18,
                dst_wildcard_prob: 0.08,
                src_prefix_len_range: (8, 32),
                dst_prefix_len_range: (16, 32),
                prefix_pool_fraction: 0.30,
                src_port_any_prob: 0.80,
                dst_port_exact_prob: 0.60,
                dst_port_any_prob: 0.20,
                proto_any_prob: 0.10,
                arbitrary_range_prob: 0.05,
            },
        }
    }
}

impl std::fmt::Display for SeedStyle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The structural parameters of a synthetic seed style.
///
/// The values in [`SeedStyle::parameters`] were chosen so that the generated
/// sets show the qualitative behaviour the paper reports for the real
/// ClassBench sets: ACL sets stay compact and shallow, FW sets replicate
/// rules heavily (large memory, deeper trees), IPC sets sit in between.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub(crate) struct StyleParameters {
    /// Probability that a rule's source address is a full wildcard.
    pub src_wildcard_prob: f64,
    /// Probability that a rule's destination address is a full wildcard.
    pub dst_wildcard_prob: f64,
    /// Inclusive range of source prefix lengths when not wildcarded.
    pub src_prefix_len_range: (u8, u8),
    /// Inclusive range of destination prefix lengths when not wildcarded.
    pub dst_prefix_len_range: (u8, u8),
    /// Fraction of the ruleset size used as the size of the shared prefix
    /// pool; smaller pools mean more prefix sharing between rules (more
    /// realistic distinct-range counts).
    pub prefix_pool_fraction: f64,
    /// Probability that the source port is a wildcard.
    pub src_port_any_prob: f64,
    /// Probability that the destination port is an exact well-known port.
    pub dst_port_exact_prob: f64,
    /// Probability that the destination port is a wildcard (the remainder is
    /// split between the ephemeral range 1024–65535 and arbitrary ranges).
    pub dst_port_any_prob: f64,
    /// Probability that the protocol is a wildcard.
    pub proto_any_prob: f64,
    /// Probability that an IP field uses a one-off prefix drawn outside the
    /// shared pool (an "odd" subnet that no other rule references).
    pub arbitrary_range_prob: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every probability is within [0, 1], the prefix length bounds are
    /// ordered and within 32 bits, and the destination-port probabilities
    /// leave room for the ephemeral and arbitrary ranges.
    #[test]
    fn builtin_styles_are_valid() {
        for style in SeedStyle::ALL {
            let p = style.parameters();
            for prob in [
                p.src_wildcard_prob,
                p.dst_wildcard_prob,
                p.prefix_pool_fraction,
                p.src_port_any_prob,
                p.dst_port_exact_prob,
                p.dst_port_any_prob,
                p.proto_any_prob,
                p.arbitrary_range_prob,
            ] {
                assert!(
                    (0.0..=1.0).contains(&prob),
                    "{style:?}: {prob} is not a probability"
                );
            }
            for (lo, hi) in [p.src_prefix_len_range, p.dst_prefix_len_range] {
                assert!(
                    lo <= hi && hi <= 32,
                    "{style:?}: prefix lengths ({lo}, {hi})"
                );
            }
            assert!(
                p.dst_port_exact_prob + p.dst_port_any_prob <= 1.0,
                "{style:?}"
            );
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(SeedStyle::Acl.name(), "acl1");
        assert_eq!(SeedStyle::Fw.name(), "fw1");
        assert_eq!(SeedStyle::Ipc.name(), "ipc1");
        assert_eq!(SeedStyle::Ipc.to_string(), "ipc1");
    }

    #[test]
    fn fw_style_is_wilder_than_acl() {
        let acl = SeedStyle::Acl.parameters();
        let fw = SeedStyle::Fw.parameters();
        assert!(fw.dst_wildcard_prob > acl.dst_wildcard_prob);
        assert!(fw.proto_any_prob > acl.proto_any_prob);
    }
}
