//! The seeded bank-operation stream every serve and stm workload
//! draws from, and the digest that pins it.
//!
//! A stream is a pure function of `(seed, workload, lane)`: two runs
//! with the same seed issue the same operations in the same order, and
//! only timing differs.

use sitm_obs::SmallRng;

/// Funding installed into every account before the measured phase.
pub use sitm_serve::loadgen::FUND_PER_KEY;

/// Operations of a lane's stream that its digest covers.
pub const DIGEST_OPS: u64 = 10_000;

/// One bank operation over two distinct accounts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// A transfer of `amount` from `a` to `b`; otherwise a read-only
    /// audit of both.
    pub transfer: bool,
    pub a: u64,
    pub b: u64,
    pub amount: i64,
}

/// The shape of a stream: key space, audit share and skew.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub keys: u64,
    /// Percent of operations that are audits.
    pub audit_pct: u64,
    /// Percent of key picks that land in the hot set.
    pub hot_pct: u64,
    /// The hot set is `hot_base .. hot_base + hot_keys`.
    pub hot_base: u64,
    pub hot_keys: u64,
}

impl Mix {
    /// Uniform picks over `keys` accounts, half audits.
    pub const fn uniform(keys: u64) -> Mix {
        Mix {
            keys,
            audit_pct: 50,
            hot_pct: 0,
            hot_base: 0,
            hot_keys: 0,
        }
    }

    pub fn funded_total(&self) -> i64 {
        self.keys as i64 * FUND_PER_KEY
    }
}

/// FNV-1a, the digest of request streams and simulator statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A lane's operation stream. It folds the first [`DIGEST_OPS`]
/// operations it hands out into [`OpStream::digest`], so the digest
/// covers what the load loop issued, not a regenerated copy.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SmallRng,
    mix: Mix,
    issued: u64,
    digest: Fnv,
}

impl OpStream {
    pub fn new(seed: u64, workload: &str, lane: usize, mix: Mix) -> OpStream {
        let mut id = Fnv::default();
        id.u64(seed);
        id.bytes(workload.as_bytes());
        id.u64(lane as u64);
        OpStream {
            rng: SmallRng::seed_from_u64(id.0),
            mix,
            issued: 0,
            digest: Fnv::default(),
        }
    }

    fn pick(&mut self) -> u64 {
        if self.mix.hot_pct > self.rng.gen_range(0..100u64) {
            self.mix.hot_base + self.rng.gen_range(0..self.mix.hot_keys)
        } else {
            self.rng.gen_range(0..self.mix.keys)
        }
    }

    pub fn next_op(&mut self) -> Op {
        let a = self.pick();
        let mut b = self.pick();
        if b == a {
            b = (a + 1) % self.mix.keys;
        }
        let transfer = self.mix.audit_pct <= self.rng.gen_range(0..100u64);
        let amount = if transfer {
            self.rng.gen_range(1..=10i64)
        } else {
            0
        };
        let op = Op {
            transfer,
            a,
            b,
            amount,
        };
        if self.issued < DIGEST_OPS {
            self.digest.bytes(&[u8::from(transfer)]);
            self.digest.u64(a);
            self.digest.u64(b);
            self.digest.u64(amount as u64);
        }
        self.issued += 1;
        op
    }

    /// Digest of the first [`DIGEST_OPS`] operations; `None` until
    /// that many were handed out.
    pub fn digest(&self) -> Option<u64> {
        (self.issued >= DIGEST_OPS).then_some(self.digest.0)
    }

    /// What [`OpStream::digest`] must read for this stream.
    pub fn expected_digest(seed: u64, workload: &str, lane: usize, mix: Mix) -> u64 {
        let mut stream = OpStream::new(seed, workload, lane, mix);
        for _ in 0..DIGEST_OPS {
            stream.next_op();
        }
        stream.digest.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOT: Mix = Mix {
        keys: 4096,
        audit_pct: 0,
        hot_pct: 90,
        hot_base: 0,
        hot_keys: 8,
    };

    #[test]
    fn same_seed_same_digest_and_any_other_input_changes_it() {
        let mix = Mix::uniform(4096);
        let base = OpStream::expected_digest(42, "serve_closed", 0, mix);
        assert_eq!(base, OpStream::expected_digest(42, "serve_closed", 0, mix));
        assert_ne!(base, OpStream::expected_digest(7, "serve_closed", 0, mix));
        assert_ne!(base, OpStream::expected_digest(42, "serve_closed", 1, mix));
        assert_ne!(base, OpStream::expected_digest(42, "serve_hot", 0, mix));
        assert_ne!(base, OpStream::expected_digest(42, "serve_closed", 0, HOT));
    }

    #[test]
    fn the_digest_covers_the_ops_handed_out() {
        let mix = Mix::uniform(4096);
        let mut stream = OpStream::new(42, "stm_short", 1, mix);
        for _ in 0..DIGEST_OPS - 1 {
            stream.next_op();
        }
        assert_eq!(stream.digest(), None);
        stream.next_op();
        let at_limit = stream.digest();
        assert_eq!(
            at_limit,
            Some(OpStream::expected_digest(42, "stm_short", 1, mix))
        );
        stream.next_op();
        assert_eq!(stream.digest(), at_limit, "later ops are not folded in");
    }

    #[test]
    fn ops_touch_two_distinct_keys_and_respect_the_mix() {
        let mut stream = OpStream::new(3, "serve_hot", 0, HOT);
        let mut hot_picks = 0;
        for _ in 0..10_000 {
            let op = stream.next_op();
            assert!(op.transfer && (1..=10).contains(&op.amount));
            assert_ne!(op.a, op.b);
            assert!(op.a < 4096 && op.b < 4096);
            hot_picks += u32::from(op.a < 8);
        }
        assert!((8_500..9_500).contains(&hot_picks), "{hot_picks}");
    }
}
