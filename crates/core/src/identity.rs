//! Campaign identity: a deterministic fingerprint over a fault list.
//!
//! Every consumer that slices, journals, merges or distributes a campaign
//! needs the same answer to "are we talking about the same fault list?".
//! The engine's journal header, `amsfi merge`, and the distributed
//! coordinator/worker handshake all validate against this fingerprint, so
//! it lives here at the bottom of the crate graph rather than in any one
//! of them.

use crate::campaign::FaultCase;
use amsfi_waves::Fnv1a;

/// FNV-1a over the campaign name and every case's label and injection time.
///
/// Deterministic across processes and machines (no pointer or hash-seed
/// dependence), which is what lets independently launched shards — or
/// remote workers that rebuilt the campaign from its name — verify they
/// are slicing the same fault list.
pub fn fingerprint(name: &str, cases: &[FaultCase]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str(name);
    h.eat();
    for case in cases {
        h.write_str(&case.label);
        h.eat();
        h.write(&case.injected_at.as_fs().to_le_bytes());
        h.eat();
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amsfi_waves::Time;

    fn cases() -> Vec<FaultCase> {
        (0..4)
            .map(|i| FaultCase::new(format!("bit{i}"), Time::from_us(5)))
            .collect()
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = cases();
        let mut b = cases();
        assert_eq!(fingerprint("toy", &a), fingerprint("toy", &cases()));
        assert_ne!(fingerprint("toy", &a), fingerprint("other", &a));
        b[2].injected_at = Time::from_us(6);
        assert_ne!(fingerprint("toy", &a), fingerprint("toy", &b));
        let mut c = cases();
        c[1].label = format!("{}!", c[1].label).into();
        assert_ne!(fingerprint("toy", &a), fingerprint("toy", &c));
    }

    /// Journal headers, `amsfi merge` and the serve handshake compare this
    /// value across builds: it must not move.
    #[test]
    fn fingerprint_of_a_fixed_list_is_pinned() {
        assert_eq!(fingerprint("toy", &cases()), 0x78d4_8343_665b_aa8c);
    }
}
