//! The unified stats registry (DESIGN.md § 12).
//!
//! Every subsystem keeps its own cheap counter struct (`DlmStats`,
//! `ServerStats`, `ConnStats`, `DlcStats`, [`OverloadStats`],
//! [`RecoveryStats`], …) so hot paths never share a cache line more
//! than they must. What was missing is one place to *read them all at
//! once*: an experiment wants a single consistent snapshot of the whole
//! pipeline, not a scavenger hunt across subsystem handles.
//!
//! A [`StatsRegistry`] holds named snapshot providers. Anything that
//! can report `(name, value)` pairs implements [`StatsSource`] (the
//! existing `snapshot()` convention on the stats structs) and is
//! registered under a section name; [`StatsRegistry::snapshot_json`]
//! renders every section — plus the trace ring, when tracing is
//! enabled — as one hand-rolled JSON document (the workspace carries no
//! serde). The bench `report` module and the `exp_obs` binary write
//! that document to disk, and CI uploads it as an artifact.
//!
//! [`OverloadStats`]: crate::metrics::OverloadStats
//! [`RecoveryStats`]: crate::metrics::RecoveryStats

use crate::sync::{ranks, OrderedMutex};
use crate::trace::{self, Stage, TraceEvent};
use std::sync::Arc;

/// Anything that can snapshot itself as `(name, value)` pairs.
pub trait StatsSource: Send + Sync {
    /// Current values, in a stable declaration order.
    fn stat_values(&self) -> Vec<(&'static str, u64)>;
}

type Provider = Arc<dyn StatsSource>;

/// A named collection of live stats providers.
///
/// Registration stores the provider (stats structs are `Clone` handles
/// over shared atomics, so a registered clone always reads live
/// values); snapshotting walks the list in registration order. The
/// inner lock ranks at [`ranks::STATS_REGISTRY`] — *below* the whole
/// hierarchy, because a snapshot may call into providers that take
/// subsystem locks.
#[derive(Clone, Default)]
pub struct StatsRegistry {
    inner: Arc<OrderedMutex<Vec<(String, Provider)>>>,
}

impl std::fmt::Debug for StatsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self
            .inner
            .lock_or_recover()
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        f.debug_struct("StatsRegistry")
            .field("sections", &names)
            .finish()
    }
}

impl StatsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(OrderedMutex::new(ranks::STATS_REGISTRY, Vec::new())),
        }
    }

    /// Register `source` under `section`. Re-registering a section name
    /// replaces the previous provider (a reconnect re-registers its
    /// stats without duplicating the section).
    pub fn register(&self, section: impl Into<String>, source: Arc<dyn StatsSource>) {
        let section = section.into();
        let mut inner = self.inner.lock_or_recover();
        if let Some(slot) = inner.iter_mut().find(|(n, _)| *n == section) {
            slot.1 = source;
        } else {
            inner.push((section, source));
        }
    }

    /// Registered section names, in registration order.
    pub fn sections(&self) -> Vec<String> {
        self.inner
            .lock_or_recover()
            .iter()
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Snapshot every section's values, in registration order.
    pub fn snapshot(&self) -> Vec<(String, Vec<(&'static str, u64)>)> {
        let providers: Vec<(String, Provider)> = self.inner.lock_or_recover().clone();
        providers
            .into_iter()
            .map(|(name, p)| (name, p.stat_values()))
            .collect()
    }

    /// Render the whole registry — and the trace ring, when tracing is
    /// enabled — as one JSON document (see [`Snapshot::parse`] for the
    /// accepted shape).
    pub fn snapshot_json(&self) -> String {
        Snapshot::capture(self).to_json()
    }
}

/// A parsed snapshot document — the read side of
/// [`StatsRegistry::snapshot_json`], used by report tooling and the
/// round-trip tests.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(section, [(key, value)])` in document order.
    pub stats: Vec<(String, Vec<(String, u64)>)>,
    /// Whether tracing was enabled when the snapshot was taken.
    pub trace_enabled: bool,
    /// Buffered trace events, in record order.
    pub events: Vec<TraceEvent>,
}

impl Snapshot {
    /// Capture the current state of `registry` (and the trace ring)
    /// without a JSON round-trip.
    pub fn capture(registry: &StatsRegistry) -> Self {
        let stats = registry
            .snapshot()
            .into_iter()
            .map(|(name, vals)| {
                (
                    name,
                    vals.into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let enabled = trace::is_enabled();
        Self {
            stats,
            trace_enabled: enabled,
            events: if enabled { trace::events() } else { Vec::new() },
        }
    }

    /// One stat value.
    pub fn get(&self, section: &str, key: &str) -> Option<u64> {
        self.stats
            .iter()
            .find(|(n, _)| n == section)?
            .1
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
    }

    /// Parse the subset of JSON that [`StatsRegistry::snapshot_json`]
    /// emits. Tolerant of whitespace; not a general JSON parser.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut out = Snapshot::default();
        let stats_at = s.find("\"stats\"").ok_or("missing \"stats\"")?;
        let trace_at = s.find("\"trace\"").ok_or("missing \"trace\"")?;
        let stats_body = &s[stats_at..trace_at];
        // Sections: "name": { "k": v, ... }
        let mut rest = stats_body;
        // Skip past the outer `"stats": {`.
        rest = &rest[rest.find('{').ok_or("missing stats object")? + 1..];
        while let Some(q) = rest.find('"') {
            let after = &rest[q + 1..];
            let Some(endq) = after.find('"') else { break };
            let name = &after[..endq];
            let after = &after[endq + 1..];
            let Some(open) = after.find('{') else { break };
            let Some(close) = after[open..].find('}') else {
                return Err(format!("unterminated section {name:?}"));
            };
            let body = &after[open + 1..open + close];
            let mut values = Vec::new();
            for pair in body.split(',') {
                let pair = pair.trim();
                if pair.is_empty() {
                    continue;
                }
                let (k, v) = pair
                    .split_once(':')
                    .ok_or_else(|| format!("bad stat pair {pair:?}"))?;
                let k = k.trim().trim_matches('"').to_string();
                let v: u64 = v
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad number for {k}: {e}"))?;
                values.push((k, v));
            }
            out.stats.push((name.to_string(), values));
            rest = &after[open + close + 1..];
        }
        let trace_body = &s[trace_at..];
        let enabled_at = trace_body.find("\"enabled\"").ok_or("missing enabled")?;
        out.trace_enabled = trace_body[enabled_at..]
            .split_once(':')
            .map(|(_, r)| r.trim_start().starts_with("true"))
            .unwrap_or(false);
        let events_at = trace_body.find("\"events\"").ok_or("missing events")?;
        let events_body = &trace_body[events_at..];
        let open = events_body.find('[').ok_or("missing events array")?;
        let close = events_body[open..]
            .find(']')
            .ok_or("unterminated events array")?;
        let body = &events_body[open + 1..open + close];
        let mut rest = body;
        while let Some(open) = rest.find('{') {
            let Some(close) = rest[open..].find('}') else {
                return Err("unterminated event object".into());
            };
            let obj = &rest[open + 1..open + close];
            let mut trace = None;
            let mut stage = None;
            let mut t_ns = None;
            for pair in obj.split(',') {
                let Some((k, v)) = pair.split_once(':') else {
                    continue;
                };
                let k = k.trim().trim_matches('"');
                let v = v.trim();
                match k {
                    "trace" => trace = v.parse::<u64>().ok(),
                    "stage" => stage = Stage::from_name(v.trim_matches('"')),
                    "t_ns" => t_ns = v.parse::<u64>().ok(),
                    _ => {}
                }
            }
            match (trace, stage, t_ns) {
                (Some(trace), Some(stage), Some(t_ns)) => {
                    out.events.push(TraceEvent { trace, stage, t_ns })
                }
                _ => return Err(format!("bad event object {obj:?}")),
            }
            rest = &rest[open + close + 1..];
        }
        Ok(out)
    }

    /// Write [`StatsRegistry::snapshot_json`]-shaped JSON for this
    /// snapshot (so a captured snapshot can be serialized later).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"stats\": {\n");
        for (si, (name, values)) in self.stats.iter().enumerate() {
            out.push_str(&format!("    \"{name}\": {{\n"));
            for (vi, (k, v)) in values.iter().enumerate() {
                let comma = if vi + 1 == values.len() { "" } else { "," };
                out.push_str(&format!("      \"{k}\": {v}{comma}\n"));
            }
            let comma = if si + 1 == self.stats.len() { "" } else { "," };
            out.push_str(&format!("    }}{comma}\n"));
        }
        out.push_str("  },\n");
        out.push_str(&format!(
            "  \"trace\": {{\n    \"enabled\": {},\n    \"events\": [\n",
            self.trace_enabled
        ));
        for (i, e) in self.events.iter().enumerate() {
            let comma = if i + 1 == self.events.len() { "" } else { "," };
            out.push_str(&format!(
                "      {{\"trace\": {}, \"stage\": \"{}\", \"t_ns\": {}}}{comma}\n",
                e.trace,
                e.stage.name(),
                e.t_ns
            ));
        }
        out.push_str("    ]\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{OverloadStats, RecoveryStats};

    struct Fixed(Vec<(&'static str, u64)>);
    impl StatsSource for Fixed {
        fn stat_values(&self) -> Vec<(&'static str, u64)> {
            self.0.clone()
        }
    }

    #[test]
    fn register_snapshot_and_replace() {
        let reg = StatsRegistry::new();
        reg.register("alpha", Arc::new(Fixed(vec![("a", 1), ("b", 2)])));
        reg.register("beta", Arc::new(Fixed(vec![("x", 9)])));
        assert_eq!(reg.sections(), vec!["alpha", "beta"]);
        let snap = Snapshot::capture(&reg);
        assert_eq!(snap.get("alpha", "b"), Some(2));
        assert_eq!(snap.get("beta", "x"), Some(9));
        assert_eq!(snap.get("beta", "nope"), None);
        // Re-registration replaces, never duplicates.
        reg.register("alpha", Arc::new(Fixed(vec![("a", 5)])));
        assert_eq!(reg.sections(), vec!["alpha", "beta"]);
        assert_eq!(Snapshot::capture(&reg).get("alpha", "a"), Some(5));
    }

    #[test]
    fn existing_stats_structs_are_sources() {
        let reg = StatsRegistry::new();
        let overload = OverloadStats::new();
        overload.enqueued.add(3);
        let recovery = RecoveryStats::new();
        recovery.reconnect_attempts.inc();
        reg.register("overload", Arc::new(overload.clone()));
        reg.register("recovery", Arc::new(recovery.clone()));
        let snap = Snapshot::capture(&reg);
        assert_eq!(snap.get("overload", "enqueued"), Some(3));
        assert_eq!(snap.get("recovery", "reconnect_attempts"), Some(1));
        // Live handles: later increments show in later snapshots.
        overload.enqueued.add(4);
        assert_eq!(Snapshot::capture(&reg).get("overload", "enqueued"), Some(7));
    }

    #[test]
    fn snapshot_json_roundtrips() {
        let reg = StatsRegistry::new();
        reg.register("one", Arc::new(Fixed(vec![("k1", 11), ("k2", 22)])));
        reg.register("two", Arc::new(Fixed(vec![("k3", 33)])));
        let json = reg.snapshot_json();
        let parsed = Snapshot::parse(&json).unwrap();
        assert_eq!(parsed.get("one", "k2"), Some(22));
        assert_eq!(parsed.get("two", "k3"), Some(33));
        assert_eq!(parsed.stats.len(), 2);
        // And a synthetic snapshot with events round-trips through
        // to_json/parse exactly.
        let snap = Snapshot {
            stats: vec![("s".into(), vec![("k".into(), 7)])],
            trace_enabled: true,
            events: vec![
                TraceEvent {
                    trace: 42,
                    stage: Stage::Commit,
                    t_ns: 1000,
                },
                TraceEvent {
                    trace: 42,
                    stage: Stage::DlcApply,
                    t_ns: 2000,
                },
            ],
        };
        let back = Snapshot::parse(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Snapshot::parse("{}").is_err());
        assert!(Snapshot::parse("{\"stats\": {}}").is_err());
        assert!(Snapshot::parse(
            "{\"stats\": {}, \"trace\": {\"enabled\": false, \"events\": [{\"trace\": \"x\"}]}}"
        )
        .is_err());
    }

    #[test]
    fn empty_registry_renders_valid_json() {
        let reg = StatsRegistry::new();
        let parsed = Snapshot::parse(&reg.snapshot_json()).unwrap();
        assert!(parsed.stats.is_empty());
        assert!(parsed.events.is_empty());
    }
}
