//! Fault plans: seeded, deterministic schedules of injected failures.
//!
//! A plan is data, not behaviour: a list of [`FaultSpec`]s saying *what*
//! fires and *when* (in terms of deterministic workload counters — the Nth
//! allocation, the Nth kernel launch — never wall-clock time). The
//! [`crate::Injector`] turns a plan into fired events; `gnn-lint` audits a
//! plan against a configured run before anything executes.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What kind of fault fires, and its trigger.
///
/// All counters are 1-based and count events of their own category since
/// the injector was installed (allocations, kernel launches, PCIe
/// transfers, data-parallel steps), so a plan is deterministic for a given
/// workload regardless of timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// One-shot device OOM: the `at`-th allocation fails (sticky error,
    /// surfaced at the next synchronization). Retrying the step succeeds.
    Oom {
        /// 1-based allocation index.
        at: u64,
    },
    /// Persistent memory ceiling: every allocation that would push current
    /// device memory above `bytes` fails. Unlike [`FaultKind::Oom`] this
    /// refires until the workload shrinks (e.g. the supervisor halves the
    /// batch size).
    MemLimit {
        /// Device capacity in bytes.
        bytes: u64,
    },
    /// Transient kernel fault: the `at`-th kernel launch is corrupt
    /// (sticky error). Retrying the step succeeds.
    KernelFault {
        /// 1-based kernel-launch index.
        at: u64,
    },
    /// PCIe straggler: the `at`-th transfer runs `factor`× slower than the
    /// link model predicts. Not an error — just lost time.
    PcieStraggler {
        /// 1-based transfer index.
        at: u64,
        /// Slowdown multiplier (> 1).
        factor: f64,
    },
    /// Replica `gpu` drops out of the data-parallel world at the `at`-th
    /// data-parallel step. The supervisor shrinks the world and re-prices.
    ReplicaFailure {
        /// 0-based replica index.
        gpu: usize,
        /// 1-based data-parallel step index.
        at: u64,
    },
    /// The training loss reported at `epoch` (0-based) is poisoned to NaN.
    NanLoss {
        /// 0-based epoch index.
        epoch: u64,
    },
    /// Fleet-level shard blackout: endpoint shard `shard` is unreachable
    /// for the simulated-time window `[from, until)` on the serve clock.
    /// Queued work drains through the router's retry budget; new arrivals
    /// route around the dark shard. Unlike the counter-triggered kinds,
    /// the window is expressed in simulated seconds — the serve clock is
    /// itself deterministic, so the trigger still is.
    ShardBlackout {
        /// 0-based shard index.
        shard: usize,
        /// Window start (simulated seconds, inclusive).
        from: f64,
        /// Window end (simulated seconds, exclusive).
        until: f64,
    },
    /// Fleet-level network straggler: router↔shard traffic to `shard` runs
    /// `factor`× slower over the simulated-time window `[from, until)`.
    /// Not an error — just lost time on every reply crossing the link.
    NetStraggler {
        /// 0-based shard index.
        shard: usize,
        /// Window start (simulated seconds, inclusive).
        from: f64,
        /// Window end (simulated seconds, exclusive).
        until: f64,
        /// Slowdown multiplier (> 1).
        factor: f64,
    },
}

impl FaultKind {
    /// Stable machine-readable label (used in plan files, logs, traces).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Oom { .. } => "oom",
            FaultKind::MemLimit { .. } => "memlimit",
            FaultKind::KernelFault { .. } => "kernel",
            FaultKind::PcieStraggler { .. } => "pcie",
            FaultKind::ReplicaFailure { .. } => "replica",
            FaultKind::NanLoss { .. } => "nan",
            FaultKind::ShardBlackout { .. } => "blackout",
            FaultKind::NetStraggler { .. } => "netslow",
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// What fires and when.
    pub kind: FaultKind,
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::Oom { at } => write!(f, "oom at={at}"),
            FaultKind::MemLimit { bytes } => write!(f, "memlimit bytes={bytes}"),
            FaultKind::KernelFault { at } => write!(f, "kernel at={at}"),
            FaultKind::PcieStraggler { at, factor } => write!(f, "pcie at={at} factor={factor}"),
            FaultKind::ReplicaFailure { gpu, at } => write!(f, "replica gpu={gpu} at={at}"),
            FaultKind::NanLoss { epoch } => write!(f, "nan epoch={epoch}"),
            FaultKind::ShardBlackout { shard, from, until } => {
                write!(f, "blackout shard={shard} from={from} until={until}")
            }
            FaultKind::NetStraggler {
                shard,
                from,
                until,
                factor,
            } => {
                write!(
                    f,
                    "netslow shard={shard} from={from} until={until} factor={factor}"
                )
            }
        }
    }
}

/// Why a plan file failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PlanParseError {}

/// A deterministic schedule of injected faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The seed the plan was generated from (0 for hand-written plans);
    /// recorded so artifacts identify the campaign.
    pub seed: u64,
    /// The scheduled faults, in file/declaration order.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Appends a spec (builder-style).
    pub fn with(mut self, kind: FaultKind) -> Self {
        self.specs.push(FaultSpec { kind });
        self
    }

    /// A seeded pseudo-random plan exercising the transient fault kinds
    /// (one-shot OOM, kernel fault, PCIe straggler, NaN loss). Every
    /// trigger index is drawn from `StdRng::seed_from_u64(seed)`, so the
    /// same seed always builds the same plan — no wall-clock randomness.
    ///
    /// Transient-only by construction: a supervisor that retries each fault
    /// once must reproduce the fault-free run's metrics bit-for-bit (the
    /// property the `tests/faults.rs` suite proves).
    pub fn seeded(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        FaultPlan {
            seed,
            specs: vec![
                FaultSpec {
                    kind: FaultKind::Oom {
                        at: rng.gen_range(2u64..200),
                    },
                },
                FaultSpec {
                    kind: FaultKind::KernelFault {
                        at: rng.gen_range(5u64..500),
                    },
                },
                FaultSpec {
                    kind: FaultKind::PcieStraggler {
                        at: rng.gen_range(1u64..40),
                        factor: 2.0 + f64::from(rng.gen_range(0u32..60)) / 10.0,
                    },
                },
                FaultSpec {
                    kind: FaultKind::NanLoss {
                        epoch: rng.gen_range(0u64..3),
                    },
                },
            ],
        }
    }

    /// The canonical chaos-campaign plan: the acceptance plan of the
    /// robustness layer, covering device OOM, a transient kernel fault, a
    /// PCIe straggler, NaN-loss poisoning, and a replica failure. Used by
    /// the CI `chaos` job and accepted by the bench binaries as
    /// `--faults canonical`.
    pub fn canonical() -> Self {
        let mut plan = FaultPlan::seeded(42);
        plan.specs.push(FaultSpec {
            kind: FaultKind::ReplicaFailure { gpu: 1, at: 2 },
        });
        plan
    }

    /// The canonical *fleet* chaos-campaign plan: the single-engine
    /// [`FaultPlan::canonical`] kinds plus the fleet-level failure modes — a
    /// shard blackout and a router↔shard network straggler, with windows
    /// sized to the default fleet horizon (400 requests at 2000 req/s ≈
    /// 0.2 s). Used by the CI `serving` job and accepted by the bench
    /// binaries as `--faults canonical-fleet`.
    pub fn canonical_fleet() -> Self {
        let mut plan = FaultPlan::canonical();
        plan.specs.push(FaultSpec {
            kind: FaultKind::ShardBlackout {
                shard: 1,
                from: 0.03,
                until: 0.09,
            },
        });
        plan.specs.push(FaultSpec {
            kind: FaultKind::NetStraggler {
                shard: 0,
                from: 0.10,
                until: 0.16,
                factor: 4.0,
            },
        });
        plan
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Renders the plan in its file format (round-trips through
    /// [`FaultPlan::parse`]).
    pub fn to_text(&self) -> String {
        let mut out = format!("# gnn-faults plan\nseed {}\n", self.seed);
        for spec in &self.specs {
            out.push_str(&spec.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses the plan file format: one directive per line, `#` comments.
    ///
    /// ```text
    /// # gnn-faults plan
    /// seed 42
    /// oom at=120
    /// memlimit bytes=200000000
    /// kernel at=300
    /// pcie at=10 factor=4.0
    /// replica gpu=2 at=3
    /// nan epoch=2
    /// blackout shard=1 from=0.03 until=0.09
    /// netslow shard=0 from=0.1 until=0.16 factor=4.0
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`PlanParseError`] naming the offending line.
    pub fn parse(text: &str) -> Result<FaultPlan, PlanParseError> {
        let mut plan = FaultPlan::empty();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let err = |message: String| PlanParseError { line, message };
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let mut words = content.split_whitespace();
            let head = words.next().expect("non-empty line has a first word");
            let mut fields: Vec<(&str, &str)> = Vec::new();
            let mut positional: Vec<&str> = Vec::new();
            for w in words {
                match w.split_once('=') {
                    Some((k, v)) => fields.push((k, v)),
                    None => positional.push(w),
                }
            }
            let field = |name: &str| -> Result<&str, PlanParseError> {
                fields
                    .iter()
                    .find(|(k, _)| *k == name)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| err(format!("`{head}` requires {name}=<value>")))
            };
            let parse_u64 = |name: &str, v: &str| -> Result<u64, PlanParseError> {
                v.parse()
                    .map_err(|e| err(format!("{name}={v} is not an integer: {e}")))
            };
            let parse_f64 = |name: &str, v: &str| -> Result<f64, PlanParseError> {
                v.parse()
                    .map_err(|e| err(format!("{name}={v} is not a number: {e}")))
            };
            match head {
                "seed" => {
                    let v = positional
                        .first()
                        .ok_or_else(|| err("`seed` requires a value".into()))?;
                    plan.seed = parse_u64("seed", v)?;
                }
                "oom" => {
                    let at = parse_u64("at", field("at")?)?;
                    plan.specs.push(FaultSpec {
                        kind: FaultKind::Oom { at },
                    });
                }
                "memlimit" => {
                    let bytes = parse_u64("bytes", field("bytes")?)?;
                    plan.specs.push(FaultSpec {
                        kind: FaultKind::MemLimit { bytes },
                    });
                }
                "kernel" => {
                    let at = parse_u64("at", field("at")?)?;
                    plan.specs.push(FaultSpec {
                        kind: FaultKind::KernelFault { at },
                    });
                }
                "pcie" => {
                    let at = parse_u64("at", field("at")?)?;
                    let fv = field("factor")?;
                    let factor: f64 = fv
                        .parse()
                        .map_err(|e| err(format!("factor={fv} is not a number: {e}")))?;
                    plan.specs.push(FaultSpec {
                        kind: FaultKind::PcieStraggler { at, factor },
                    });
                }
                "replica" => {
                    let gpu = parse_u64("gpu", field("gpu")?)? as usize;
                    let at = parse_u64("at", field("at")?)?;
                    plan.specs.push(FaultSpec {
                        kind: FaultKind::ReplicaFailure { gpu, at },
                    });
                }
                "nan" => {
                    let epoch = parse_u64("epoch", field("epoch")?)?;
                    plan.specs.push(FaultSpec {
                        kind: FaultKind::NanLoss { epoch },
                    });
                }
                "blackout" => {
                    let shard = parse_u64("shard", field("shard")?)? as usize;
                    let from = parse_f64("from", field("from")?)?;
                    let until = parse_f64("until", field("until")?)?;
                    plan.specs.push(FaultSpec {
                        kind: FaultKind::ShardBlackout { shard, from, until },
                    });
                }
                "netslow" => {
                    let shard = parse_u64("shard", field("shard")?)? as usize;
                    let from = parse_f64("from", field("from")?)?;
                    let until = parse_f64("until", field("until")?)?;
                    let factor = parse_f64("factor", field("factor")?)?;
                    plan.specs.push(FaultSpec {
                        kind: FaultKind::NetStraggler {
                            shard,
                            from,
                            until,
                            factor,
                        },
                    });
                }
                other => return Err(err(format!("unknown directive `{other}`"))),
            }
        }
        Ok(plan)
    }

    /// Loads a plan from a file.
    ///
    /// # Errors
    ///
    /// Returns the IO error message or the parse diagnostic.
    pub fn load(path: &std::path::Path) -> Result<FaultPlan, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        FaultPlan::parse(&text).map_err(|e| e.to_string())
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault plan (seed {}): {} fault(s)",
            self.seed,
            self.specs.len()
        )?;
        for spec in &self.specs {
            write!(f, "\n  {spec}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        assert_eq!(FaultPlan::seeded(7), FaultPlan::seeded(7));
        assert_ne!(FaultPlan::seeded(7), FaultPlan::seeded(8));
        assert_eq!(FaultPlan::seeded(7).specs.len(), 4);
    }

    #[test]
    fn canonical_covers_all_acceptance_kinds() {
        let plan = FaultPlan::canonical();
        let labels: Vec<&str> = plan.specs.iter().map(|s| s.kind.label()).collect();
        for needed in ["oom", "kernel", "pcie", "nan", "replica"] {
            assert!(labels.contains(&needed), "canonical plan missing {needed}");
        }
    }

    #[test]
    fn text_round_trip() {
        let plan = FaultPlan::canonical().with(FaultKind::MemLimit { bytes: 1 << 30 });
        let parsed = FaultPlan::parse(&plan.to_text()).unwrap();
        assert_eq!(parsed, plan);
    }

    #[test]
    fn canonical_fleet_adds_fleet_kinds_and_round_trips() {
        let plan = FaultPlan::canonical_fleet();
        let labels: Vec<&str> = plan.specs.iter().map(|s| s.kind.label()).collect();
        for needed in [
            "oom", "kernel", "pcie", "nan", "replica", "blackout", "netslow",
        ] {
            assert!(labels.contains(&needed), "fleet plan missing {needed}");
        }
        let parsed = FaultPlan::parse(&plan.to_text()).unwrap();
        assert_eq!(parsed, plan);
    }

    #[test]
    fn fleet_directives_require_their_fields() {
        let err = FaultPlan::parse("blackout shard=1 from=0.1\n").unwrap_err();
        assert!(err.message.contains("until=<value>"));
        let err = FaultPlan::parse("netslow shard=0 from=0 until=soon factor=2\n").unwrap_err();
        assert!(err.message.contains("until=soon is not a number"));
    }

    #[test]
    fn parse_reports_line_numbers() {
        let err = FaultPlan::parse("seed 1\nbogus at=3\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("bogus"));
        let err = FaultPlan::parse("oom\n").unwrap_err();
        assert!(err.message.contains("at=<value>"));
        let err = FaultPlan::parse("pcie at=1 factor=fast\n").unwrap_err();
        assert!(err.message.contains("factor"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let plan = FaultPlan::parse("# header\n\n  oom at=3 # trailing\n").unwrap();
        assert_eq!(plan.specs.len(), 1);
        assert_eq!(plan.specs[0].kind, FaultKind::Oom { at: 3 });
    }
}
