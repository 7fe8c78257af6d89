//! `BENCHMARK.json` as the program sees it, and the metric sets a run
//! fills in.
//!
//! The file is embedded at build time, so the names a run may emit are
//! exactly the names the file lists: [`MetricSet::set`] refuses a name
//! that is not listed and [`MetricSet::finish`] refuses to leave one
//! out.

use std::collections::BTreeMap;

use sitm_obs::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of `end_to_end` or `per_layer`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the median the metric may worsen by; `None` on
    /// per-layer metrics.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    /// `(name, why)` in file order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("BENCHMARK.json: missing string `{key}`"))
}

fn metric_list(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: missing list `{key}`"))?;
    items
        .iter()
        .map(|m| {
            let better = str_field(m, "better")?;
            if better != "higher" && better != "lower" {
                return Err(format!("BENCHMARK.json: bad `better` value `{better}`"));
            }
            Ok(MetricSpec {
                name: str_field(m, "name")?.to_string(),
                unit: str_field(m, "unit")?.to_string(),
                higher_is_better: better == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parses the embedded `BENCHMARK.json`.
    pub fn load() -> Result<Spec, String> {
        let doc = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: missing list `workloads`")?
            .iter()
            .map(|w| {
                Ok((
                    str_field(w, "name")?.to_string(),
                    str_field(w, "why")?.to_string(),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: missing `run_seconds`")?,
            workloads,
            end_to_end: metric_list(&doc, "end_to_end")?,
            per_layer: metric_list(&doc, "per_layer")?,
        })
    }

    pub fn workload_names(&self) -> impl Iterator<Item = &str> {
        self.workloads.iter().map(|(name, _)| name.as_str())
    }
}

/// The metrics of one run, keyed by the names of one `BENCHMARK.json`
/// list.
#[derive(Debug)]
pub struct MetricSet {
    specs: Vec<MetricSpec>,
    values: BTreeMap<String, f64>,
    /// Per-layer sets start every metric at 0 (a layer the workload
    /// does not touch reads 0); end-to-end sets start empty and every
    /// metric must be set to a nonzero value.
    zero_filled: bool,
}

impl MetricSet {
    pub fn end_to_end(spec: &Spec) -> MetricSet {
        MetricSet {
            specs: spec.end_to_end.clone(),
            values: BTreeMap::new(),
            zero_filled: false,
        }
    }

    pub fn per_layer(spec: &Spec) -> MetricSet {
        MetricSet {
            specs: spec.per_layer.clone(),
            values: spec
                .per_layer
                .iter()
                .map(|m| (m.name.clone(), 0.0))
                .collect(),
            zero_filled: true,
        }
    }

    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics when `BENCHMARK.json` does not list `name`: emitting an
    /// unlisted metric is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            self.specs.iter().any(|m| m.name == name),
            "metric `{name}` is not listed in BENCHMARK.json"
        );
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `metrics` object of the result line.
    ///
    /// # Errors
    ///
    /// Names every listed metric that was not set, is not finite, or —
    /// end to end — is 0.
    pub fn finish(&self) -> Result<Json, String> {
        let mut out = BTreeMap::new();
        for m in &self.specs {
            let value = self
                .values
                .get(&m.name)
                .copied()
                .ok_or_else(|| format!("metric `{}` was not measured", m.name))?;
            if !value.is_finite() || (!self.zero_filled && value == 0.0) {
                return Err(format!("metric `{}` reads {value}", m.name));
            }
            let mut entry = BTreeMap::new();
            entry.insert("value".to_string(), Json::Num(value));
            entry.insert("unit".to_string(), Json::Str(m.unit.clone()));
            out.insert(m.name.clone(), Json::Obj(entry));
        }
        Ok(Json::Obj(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_meets_the_contract_limits() {
        let spec = Spec::load().unwrap();
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in &spec.workloads {
            assert!(name_ok(name), "{name}");
            assert!(seen.insert(name.clone()), "{name} used twice");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(name_ok(&m.name), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    }

    #[test]
    fn every_workload_named_in_the_file_can_run() {
        let spec = Spec::load().unwrap();
        for name in spec.workload_names() {
            assert!(crate::workload_known(name), "{name}");
        }
    }

    #[test]
    fn end_to_end_set_must_be_complete_and_nonzero() {
        let spec = Spec::load().unwrap();
        let mut set = MetricSet::end_to_end(&spec);
        for m in &spec.end_to_end {
            set.set(&m.name, 1.5);
        }
        assert!(set.finish().is_ok());
        set.set("setup_s", 0.0);
        assert!(set.finish().unwrap_err().contains("setup_s"));
        let partial = MetricSet::end_to_end(&spec);
        assert!(partial.finish().unwrap_err().contains("was not measured"));
    }

    #[test]
    fn per_layer_set_emits_every_listed_name() {
        let spec = Spec::load().unwrap();
        let Json::Obj(out) = MetricSet::per_layer(&spec).finish().unwrap() else {
            panic!("metrics object");
        };
        let listed: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        let mut emitted: Vec<&str> = out.keys().map(String::as_str).collect();
        let mut want = listed.clone();
        want.sort_unstable();
        emitted.sort_unstable();
        assert_eq!(emitted, want);
    }

    #[test]
    #[should_panic(expected = "not listed in BENCHMARK.json")]
    fn an_unlisted_metric_cannot_be_emitted() {
        let spec = Spec::load().unwrap();
        MetricSet::per_layer(&spec).set("server.bogus", 1.0);
    }
}
