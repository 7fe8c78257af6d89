//! The pinned digests of `golden/digests.json`: every lane's request
//! stream and the simulator grid's statistics, for one seed.
//!
//! A run with the pinned seed must reproduce them; a run with any
//! other seed is held to determinism instead (a stream against its
//! regeneration, a grid pass against the passes after it). The file is
//! embedded at build time; `bless` rewrites it.

use std::collections::BTreeMap;

use sitm_obs::Json;

const DIGESTS_JSON: &str = include_str!("../golden/digests.json");

/// Where `bless` writes, relative to the repository root.
pub const PATH: &str = "benchmark/golden/digests.json";

/// The seed `run` uses by default and the goldens are pinned for.
pub const SEED: u64 = 42;

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Golden {
    seed: u64,
    digests: BTreeMap<String, u64>,
}

/// The key of one lane's stream digest.
pub fn stream_key(workload: &str, lane: usize) -> String {
    format!("{workload}/{lane}")
}

impl Golden {
    pub fn new(seed: u64, digests: BTreeMap<String, u64>) -> Golden {
        Golden { seed, digests }
    }

    pub fn embedded() -> Result<Golden, String> {
        Golden::parse(DIGESTS_JSON)
    }

    pub fn parse(text: &str) -> Result<Golden, String> {
        let doc = Json::parse(text).map_err(|e| format!("{PATH}: {e:?}"))?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{PATH}: missing `seed`"))?;
        let Some(Json::Obj(entries)) = doc.get("digests") else {
            return Err(format!("{PATH}: missing `digests`"));
        };
        let digests = entries
            .iter()
            .map(|(key, value)| {
                value
                    .as_str()
                    .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                    .map(|digest| (key.clone(), digest))
                    .ok_or_else(|| format!("{PATH}: `{key}` is not a hex digest"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Golden { seed, digests })
    }

    /// The pinned digest under `key`, when `seed` is the pinned seed.
    ///
    /// # Errors
    ///
    /// The pinned seed with no entry for `key`: the goldens are stale
    /// and need `bless`.
    pub fn pinned(&self, seed: u64, key: &str) -> Result<Option<u64>, String> {
        if seed != self.seed {
            return Ok(None);
        }
        self.digests
            .get(key)
            .map(|&digest| Some(digest))
            .ok_or_else(|| format!("{PATH} has no digest for `{key}`; run `bless`"))
    }

    /// The file's text: digests as 16 hex digits (JSON numbers cannot
    /// hold a `u64`).
    pub fn render(&self) -> String {
        let mut out = format!("{{\n  \"seed\": {},\n  \"digests\": {{\n", self.seed);
        let last = self.digests.len().saturating_sub(1);
        for (i, (key, digest)) in self.digests.iter().enumerate() {
            let comma = if i == last { "" } else { "," };
            out.push_str(&format!("    \"{key}\": \"{digest:016x}\"{comma}\n"));
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let golden = Golden::new(
            42,
            BTreeMap::from([
                (stream_key("serve_hot", 1), u64::MAX),
                ("sim_grid".to_string(), 0x1234),
            ]),
        );
        assert_eq!(Golden::parse(&golden.render()).unwrap(), golden);
    }

    #[test]
    fn only_the_pinned_seed_is_held_to_the_goldens() {
        let golden = Golden::new(42, BTreeMap::from([("sim_grid".to_string(), 9)]));
        assert_eq!(golden.pinned(42, "sim_grid"), Ok(Some(9)));
        assert_eq!(golden.pinned(7, "sim_grid"), Ok(None));
        assert!(golden
            .pinned(42, "stm_short/0")
            .unwrap_err()
            .contains("bless"));
    }

    #[test]
    fn the_embedded_goldens_parse_and_pin_the_default_seed() {
        let golden = Golden::embedded().unwrap();
        assert_eq!(golden.seed, SEED);
    }
}
