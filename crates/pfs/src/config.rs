//! Configuration of the simulated parallel file system.

/// Tunable constants. Defaults approximate the paper's testbed: Lustre with
/// 30 object storage targets (OSTs) and a 1 MB stripe size, fronting ~1 PB
/// of spinning disk (§V.A).
///
/// The paper notes that by default Lonestar places each *file* on a single
/// OST; the throughput it reports (hundreds of MB/s aggregate for writes,
/// several GB/s for reads) implies wide striping for the shared benchmark
/// files, so `stripe_count` defaults to the full OST set. The harness can
/// override it — see `DESIGN.md`'s substitution table.
#[derive(Debug, Clone)]
pub struct PfsConfig {
    /// Stripe size in bytes; also the extent-lock granularity.
    pub stripe_size: u64,
    /// Number of OSTs a single file is striped across.
    pub stripe_count: usize,
    /// Total number of OSTs in the system.
    pub num_osts: usize,
    /// Sustained write bandwidth of one OST (bytes/s).
    pub ost_write_bw: f64,
    /// Sustained read bandwidth of one OST (bytes/s).
    pub ost_read_bw: f64,
    /// Server-side fixed service time per RPC (seek, commit bookkeeping).
    pub ost_service: f64,
    /// Per-byte time on the client's link to the storage network.
    pub client_byte_time: f64,
    /// Maximum payload of a single RPC; larger accesses are split.
    pub max_rpc: u64,
    /// Keep a server-side replica of every written stripe so
    /// [`crate::Pfs::scrub`] can *repair* detected corruptions, not just
    /// report them (models RAID-style redundancy behind the OSTs). Off by
    /// default: checksums always verify, but without a replica a bad
    /// stripe is only detectable.
    pub stripe_replicas: bool, // setting: the pfs fingerprint's health cell sets it
}

impl Default for PfsConfig {
    fn default() -> Self {
        PfsConfig {
            stripe_size: 1 << 20,
            stripe_count: 30,
            num_osts: 30,
            ost_write_bw: 350.0e6,
            ost_read_bw: 900.0e6,
            ost_service: 400.0e-6,
            client_byte_time: 1.0 / 2.5e9,
            max_rpc: 4 << 20,
            stripe_replicas: false,
        }
    }
}

impl PfsConfig {
    /// Reject a configuration the cost model cannot run (checked by
    /// [`crate::Pfs::new`]): a zero size or count, more stripes than OSTs,
    /// or a cost constant that is NaN, infinite or negative (a bandwidth
    /// must also be non-zero). The error names the field.
    pub fn validate(&self) -> Result<(), String> {
        if self.stripe_size == 0 {
            return Err("stripe_size must be positive".into());
        }
        if self.stripe_count == 0 || self.num_osts == 0 {
            return Err("stripe_count and num_osts must be positive".into());
        }
        if self.stripe_count > self.num_osts {
            return Err(format!(
                "stripe_count {} exceeds num_osts {}",
                self.stripe_count, self.num_osts
            ));
        }
        if self.max_rpc == 0 {
            return Err("max_rpc must be positive".into());
        }
        // Every cost below becomes a duration on an OST or client-link
        // timeline; a NaN or infinite one would corrupt its order.
        for (name, bw) in [
            ("ost_write_bw", self.ost_write_bw),
            ("ost_read_bw", self.ost_read_bw),
        ] {
            if !(bw.is_finite() && bw > 0.0) {
                return Err(format!("{name} must be positive and finite, got {bw}"));
            }
        }
        for (name, cost) in [
            ("ost_service", self.ost_service),
            ("client_byte_time", self.client_byte_time),
        ] {
            if !(cost.is_finite() && cost >= 0.0) {
                return Err(format!(
                    "{name} must be finite and non-negative, got {cost}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_testbed() {
        let c = PfsConfig::default();
        c.validate().unwrap();
        assert_eq!(c.stripe_size, 1 << 20, "paper: 1 MB stripes");
        assert_eq!(c.num_osts, 30, "paper: 30 OSTs");
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = PfsConfig {
            stripe_size: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = PfsConfig {
            stripe_count: 31,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = PfsConfig {
            max_rpc: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_cost_constants_are_rejected_by_name() {
        type Field = fn(&mut PfsConfig) -> &mut f64;
        // (field, may it be zero?)
        let fields: [(&str, Field, bool); 4] = [
            ("ost_write_bw", |c| &mut c.ost_write_bw, false),
            ("ost_read_bw", |c| &mut c.ost_read_bw, false),
            ("ost_service", |c| &mut c.ost_service, true),
            ("client_byte_time", |c| &mut c.client_byte_time, true),
        ];
        for (name, field, zero_ok) in fields {
            let with = |v: f64| {
                let mut c = PfsConfig::default();
                *field(&mut c) = v;
                c
            };
            assert_eq!(with(0.0).validate().is_ok(), zero_ok, "{name} = 0");
            let bad = [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY];
            for v in bad.into_iter().chain((!zero_ok).then_some(0.0)) {
                let err = crate::Pfs::new(1, with(v)).err();
                assert!(
                    matches!(&err, Some(crate::PfsError::Config(m)) if m.contains(name)),
                    "{name} = {v}: {err:?}"
                );
            }
        }
    }
}
