//! Sample-config auditing: every rule of a giant-graph sampling spec,
//! reported at once before the (possibly million-node) graph is generated.
//!
//! [`gnn_sample::SampleSpec::validate`] refuses with the first broken
//! rule; this pass reports every entry of
//! [`gnn_sample::SampleSpec::violations`] as one
//! [`FindingKind::InvalidSampleConfig`] finding (`sample-config` in
//! `lint.json`) at `sample/<name>/<field>`, with the spec's own error
//! text, so a fanout/cache sweep with several broken points fails with
//! the full list, not one error per rerun.

use gnn_sample::SampleSpec;

use crate::report::{Finding, FindingKind};

/// Audits one sampled-cell spec, appending one `sample-config` finding
/// per broken rule. Returns the number of findings added. `spec.name`
/// roots the finding paths (`sample/<name>/<field>`).
pub fn check_sample_spec(spec: &SampleSpec, findings: &mut Vec<Finding>) -> usize {
    let violations = spec.violations();
    for err in &violations {
        findings.push(Finding::new(
            FindingKind::InvalidSampleConfig,
            format!("sample/{}/{}", spec.name, err.field()),
            err.to_string(),
        ));
    }
    violations.len()
}

/// Resolves a list of spec *names* (the `RunConfig::sample_specs` form):
/// unknown names get a finding at `sample/<name>`. Returns the resolved
/// specs, so callers lint and certify the same objects the sweep will run
/// (`crate::run::lint_sample_spec`).
pub fn resolve_sample_specs(names: &[String], findings: &mut Vec<Finding>) -> Vec<SampleSpec> {
    let mut specs = Vec::with_capacity(names.len());
    for name in names {
        match SampleSpec::get(name) {
            Ok(spec) => specs.push(spec),
            Err(e) => findings.push(Finding::new(
                FindingKind::InvalidSampleConfig,
                format!("sample/{name}"),
                e.to_string(),
            )),
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_sample::RmatConfig;

    fn broken_spec() -> SampleSpec {
        SampleSpec {
            name: "rmat-4k",
            rmat: RmatConfig::graph500(12, 4, 0x6e3),
            fanouts: vec![4, 0],
            batch_seeds: 1 << 13, // beyond the 2^12 node range
            cache_rows: 1 << 13,  // bigger than the feature matrix
            partitions: 2,
            home_partition: 5,
        }
    }

    #[test]
    fn catalog_specs_lint_clean() {
        let mut findings = Vec::new();
        let specs = resolve_sample_specs(
            &SampleSpec::names()
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
            &mut findings,
        );
        assert_eq!(specs.len(), 3);
        for spec in &specs {
            assert_eq!(check_sample_spec(spec, &mut findings), 0);
        }
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn every_defect_is_reported_at_its_field() {
        let mut findings = Vec::new();
        let n = check_sample_spec(&broken_spec(), &mut findings);
        assert_eq!(n, 4, "{findings:?}");
        let paths: Vec<&str> = findings.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "sample/rmat-4k/fanouts",
                "sample/rmat-4k/batch_seeds",
                "sample/rmat-4k/cache_rows",
                "sample/rmat-4k/home_partition",
            ]
        );
        assert!(findings
            .iter()
            .all(|f| f.kind == FindingKind::InvalidSampleConfig));
        assert!(findings[0].message.contains("fan-out at hop 1"));
        assert!(findings[2].message.contains("exceeds the 4096-row"));
    }

    #[test]
    fn broken_rmat_params_suppress_range_checks() {
        let mut spec = broken_spec();
        spec.rmat.scale = 0;
        let mut findings = Vec::new();
        check_sample_spec(&spec, &mut findings);
        let paths: Vec<&str> = findings.iter().map(|f| f.path.as_str()).collect();
        assert!(paths.contains(&"sample/rmat-4k/rmat"), "{paths:?}");
        assert!(
            !paths.iter().any(|p| p.ends_with("cache_rows")),
            "range checks against a garbage node count are suppressed: {paths:?}"
        );
    }

    #[test]
    fn unknown_names_get_one_finding_each() {
        let mut findings = Vec::new();
        let specs = resolve_sample_specs(
            &["rmat-4k".to_string(), "rmat-9z".to_string()],
            &mut findings,
        );
        assert_eq!(specs.len(), 1);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].path, "sample/rmat-9z");
        assert!(findings[0].message.contains("unknown sample spec"));
    }
}
