//! Fault-plan auditing: proving a chaos campaign can actually fire.
//!
//! A [`gnn_faults::FaultPlan`] is data checked against workload counters at
//! run time, so a misconfigured plan fails silently: a 1-based trigger of
//! `0` never matches any counter, a NaN poisoning aimed past the last
//! epoch never fires, a replica failure on a GPU the sweep never creates
//! does nothing. This pass flags every spec that is degenerate for the
//! configured run, under [`FindingKind::InvalidFaultPlan`], before anything
//! executes.

use gnn_core::RunConfig;
use gnn_faults::{FaultKind, FaultPlan};

use crate::memory::CellCert;
use crate::report::{Finding, FindingKind};

/// The largest data-parallel world any configured experiment builds
/// (Fig. 6 sweeps 1/2/4/8 GPUs), so valid replica indices are `0..8`.
const MAX_WORLD: usize = 8;

/// Audits `plan` against the run `cfg` describes, appending one finding per
/// degenerate spec. Paths are `faults/<index>` (declaration order).
pub fn check_fault_plan(plan: &FaultPlan, cfg: &RunConfig, findings: &mut Vec<Finding>) {
    let max_epochs = cfg.node_epochs.max(cfg.graph_epochs) as u64;
    for (i, spec) in plan.specs.iter().enumerate() {
        let path = format!("faults/{i}");
        let mut flag = |message: String| {
            findings.push(Finding::new(FindingKind::InvalidFaultPlan, &path, message));
        };
        match spec.kind {
            FaultKind::Oom { at: 0 } => {
                flag("oom at=0 never fires: allocation counters are 1-based".into());
            }
            FaultKind::KernelFault { at: 0 } => {
                flag("kernel at=0 never fires: launch counters are 1-based".into());
            }
            FaultKind::MemLimit { bytes: 0 } => {
                flag(
                    "memlimit bytes=0 fails every allocation: no batch size can fit, \
                     so the supervisor cannot degrade its way out"
                        .into(),
                );
            }
            FaultKind::ReplicaFailure { at: 0, .. } => {
                flag("replica at=0 never fires: data-parallel steps are 1-based".into());
            }
            FaultKind::ReplicaFailure { gpu, .. } if gpu >= MAX_WORLD => {
                flag(format!(
                    "replica gpu={gpu} does not exist: the largest configured \
                     data-parallel world has {MAX_WORLD} GPUs (indices 0..{MAX_WORLD})"
                ));
            }
            FaultKind::NanLoss { epoch } if epoch >= max_epochs => {
                flag(format!(
                    "nan epoch={epoch} is past the last configured epoch \
                     ({max_epochs} max over node/graph tasks): it can never fire"
                ));
            }
            _ => {}
        }
    }
}

/// Audits a plan's memory ceilings against the certified per-cell
/// footprints of the configured sweep. Two static rejections, in order of
/// severity:
///
/// - a ceiling below the largest cell's *persistent* footprint
///   (parameters + optimizer state + pinned features) is an
///   [`FindingKind::InvalidFaultPlan`]: not even the model fits, so no
///   amount of batch halving can help;
/// - a ceiling below the largest cell's *fatal floor* (persistent + the
///   smallest mandatory step at batch 1) is
///   [`FindingKind::CeilingUnsatisfiable`]: the supervisor's batch-halving
///   degradation has no fixed point — halving bottoms out at 1 and the
///   retries still exhaust.
///
/// Zero-byte ceilings are skipped here; [`check_fault_plan`] already
/// rejects them. Paths follow the `faults/<index>` convention.
pub fn check_memory_ceilings(plan: &FaultPlan, certs: &[CellCert], findings: &mut Vec<Finding>) {
    let Some(worst_persistent) = certs.iter().max_by_key(|c| c.persistent) else {
        return;
    };
    let worst_floor = certs
        .iter()
        .max_by_key(|c| c.floor_fatal)
        .expect("non-empty certs");
    for (i, spec) in plan.specs.iter().enumerate() {
        let FaultKind::MemLimit { bytes } = spec.kind else {
            continue;
        };
        if bytes == 0 {
            continue;
        }
        let path = format!("faults/{i}");
        if bytes < worst_persistent.persistent {
            findings.push(Finding::new(
                FindingKind::InvalidFaultPlan,
                path,
                format!(
                    "memlimit bytes={bytes} is below the certified persistent footprint \
                     ({} B: parameters, optimizer state, pinned features) of {}: \
                     no batch size can fit, so the supervisor cannot degrade its way out",
                    worst_persistent.persistent,
                    worst_persistent.path()
                ),
            ));
        } else if bytes < worst_floor.floor_fatal {
            findings.push(Finding::new(
                FindingKind::CeilingUnsatisfiable,
                path,
                format!(
                    "memlimit bytes={bytes} admits no batch size for {}: the certified \
                     floor at batch 1 is {} B, so batch-halving degradation has no \
                     fixed point and the cell fails after retries",
                    worst_floor.path(),
                    worst_floor.floor_fatal
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(plan: &FaultPlan, cfg: &RunConfig) -> Vec<Finding> {
        let mut findings = Vec::new();
        check_fault_plan(plan, cfg, &mut findings);
        findings
    }

    #[test]
    fn canonical_and_seeded_plans_are_clean() {
        let cfg = RunConfig::smoke();
        assert!(lint(&FaultPlan::canonical(), &cfg).is_empty());
        for seed in 0..20 {
            assert!(
                lint(&FaultPlan::seeded(seed), &cfg).is_empty(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn one_based_counters_reject_zero_triggers() {
        let plan = FaultPlan::empty()
            .with(FaultKind::Oom { at: 0 })
            .with(FaultKind::KernelFault { at: 0 })
            .with(FaultKind::ReplicaFailure { gpu: 0, at: 0 });
        let findings = lint(&plan, &RunConfig::smoke());
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings
            .iter()
            .all(|f| f.kind == FindingKind::InvalidFaultPlan && f.message.contains("1-based")));
        // Paths identify the offending spec by declaration index.
        assert_eq!(findings[2].path, "faults/2");
    }

    #[test]
    fn nonexistent_gpu_and_late_epoch_are_flagged() {
        let cfg = RunConfig::smoke(); // 3 node epochs, 2 graph epochs
        let plan = FaultPlan::empty()
            .with(FaultKind::ReplicaFailure { gpu: 8, at: 1 })
            .with(FaultKind::NanLoss { epoch: 3 });
        let findings = lint(&plan, &cfg);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("gpu=8"));
        assert!(findings[1].message.contains("never fire"));
        // The same poisoning is fine under a config that trains that long.
        let mut long = RunConfig::smoke();
        long.node_epochs = 10;
        assert!(lint(
            &FaultPlan::empty().with(FaultKind::NanLoss { epoch: 3 }),
            &long
        )
        .is_empty());
    }

    #[test]
    fn memory_ceilings_are_checked_against_certified_footprints() {
        use crate::memory::certify_node_cell;
        use gnn_datasets::CitationSpec;
        use gnn_models::config::{FrameworkKind, ModelKind};

        let ds = CitationSpec::cora().scaled(0.05).generate(0);
        let cert = certify_node_cell(ModelKind::Gcn, FrameworkKind::RustyG, &ds);
        let certs = [cert.clone()];
        let audit = |bytes: u64| {
            let mut findings = Vec::new();
            check_memory_ceilings(
                &FaultPlan::empty().with(FaultKind::MemLimit { bytes }),
                &certs,
                &mut findings,
            );
            findings
        };

        // Below the persistent footprint: statically fatal, invalid plan.
        let below = audit(cert.persistent - 1);
        assert_eq!(below.len(), 1, "{below:?}");
        assert_eq!(below[0].kind, FindingKind::InvalidFaultPlan);
        assert!(below[0].message.contains("persistent footprint"));
        assert_eq!(below[0].path, "faults/0");

        // Between persistent and the fatal floor: no batch size admits.
        let squeezed = audit(cert.floor_fatal - 1);
        assert_eq!(squeezed.len(), 1, "{squeezed:?}");
        assert_eq!(squeezed[0].kind, FindingKind::CeilingUnsatisfiable);
        assert!(squeezed[0].message.contains("no batch size"));

        // At or above the floor: survivable (possibly degraded) — clean.
        assert!(audit(cert.floor_fatal).is_empty());
        assert!(audit(cert.peak_upper).is_empty());

        // bytes=0 is check_fault_plan's finding, not a duplicate here.
        assert!(audit(0).is_empty());

        // Non-memlimit specs and empty cert sets are ignored.
        let mut findings = Vec::new();
        check_memory_ceilings(
            &FaultPlan::empty().with(FaultKind::Oom { at: 1 }),
            &certs,
            &mut findings,
        );
        check_memory_ceilings(
            &FaultPlan::empty().with(FaultKind::MemLimit { bytes: 1 }),
            &[],
            &mut findings,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn zero_byte_limit_is_flagged() {
        let plan = FaultPlan::empty()
            .with(FaultKind::MemLimit { bytes: 0 })
            .with(FaultKind::MemLimit { bytes: 1 << 30 });
        let findings = lint(&plan, &RunConfig::smoke());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].path, "faults/0");
        assert!(findings[0].message.contains("every allocation"));
    }
}
