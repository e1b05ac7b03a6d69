//! The four named workloads and what each one changes from the defaults.

use displaydb_display::schema::{width_coded_link, DisplayClassBuilder};
use displaydb_display::DisplayClassDef;
use displaydb_schema::Value;
use displaydb_server::ServerConfig;
use std::sync::Arc;

/// Commits per second offered by the open-loop workloads: far below the
/// closed-loop rate of this system (see `sweep`), so queues stay empty.
pub const OPEN_RATE: u64 = 400;

/// How the updater paces itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pacing {
    /// On a schedule, whatever the server does; the backlog may grow.
    Open { per_second: u64 },
    /// Next commit when the previous one is acknowledged.
    Closed,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SteadyDelta,
    SteadyWhole,
    StormSaturate,
    UpstreamDurable,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SteadyDelta,
        Workload::SteadyWhole,
        Workload::StormSaturate,
        Workload::UpstreamDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyDelta => "steady.delta",
            Workload::SteadyWhole => "steady.whole",
            Workload::StormSaturate => "storm.saturate",
            Workload::UpstreamDurable => "upstream.durable",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn pacing(self) -> Pacing {
        match self {
            Workload::StormSaturate => Pacing::Closed,
            _ => Pacing::Open {
                per_second: OPEN_RATE,
            },
        }
    }

    /// One commit in this many writes `Utilization`, the attribute the
    /// viewer projects; the rest write `ErrorRate`.
    pub fn projected_every(self) -> u64 {
        match self {
            Workload::UpstreamDurable => 4,
            _ => 1,
        }
    }

    /// The viewer's display class. Both project `Utilization`; only the
    /// first declares what its compute step reads, so only the first is
    /// watched with projected display locks and refreshed by deltas.
    pub fn viewer_class(self) -> Arc<DisplayClassDef> {
        match self {
            Workload::SteadyWhole => DisplayClassBuilder::new("WholeObjectLink")
                .project(&["Utilization"])
                .compute("Width", |ctx| {
                    Ok(Value::Float(ctx.max_float("Utilization")?.clamp(0.0, 1.0)))
                })
                .build(),
            _ => width_coded_link("Utilization"),
        }
    }

    /// Apply this workload's non-default server settings and return them
    /// as `(field, value)` pairs for the report.
    pub fn configure(self, config: &mut ServerConfig) -> Vec<(&'static str, String)> {
        match self {
            Workload::UpstreamDurable => {
                config.durable_log.enabled = true;
                config.dlm.shards = 4;
                vec![
                    ("server.durable_log.enabled", "true".into()),
                    ("server.dlm.shards", "4".into()),
                ]
            }
            _ => Vec::new(),
        }
    }
}
