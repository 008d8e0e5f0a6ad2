//! What the kernel says about this process: peak resident set, CPU time
//! split and page faults, read from `/proc/self`.

use std::fs;

/// The counters of `/proc/self/stat` the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcStat {
    /// Minor page faults so far.
    pub minor_faults: u64,
    /// User-mode CPU time, clock ticks.
    pub utime_ticks: u64,
    /// Kernel-mode CPU time, clock ticks.
    pub stime_ticks: u64,
}

/// `VmHWM` (peak resident set) in kB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    rest.split_whitespace().next()?.parse().ok()
}

/// Fields 10 (`minflt`), 14 (`utime`) and 15 (`stime`) of the text of
/// `/proc/<pid>/stat`. The command name in field 2 may itself hold spaces
/// and parentheses, so fields are counted from the last `)`.
pub fn parse_stat(stat: &str) -> Option<ProcStat> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state).
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let field = |n: usize| -> Option<u64> { fields.get(n - 3)?.parse().ok() };
    Some(ProcStat {
        minor_faults: field(10)?,
        utime_ticks: field(14)?,
        stime_ticks: field(15)?,
    })
}

/// Peak resident set of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_vm_hwm_kb(&status)? as f64 * 1024.0 / 1e6)
}

/// Current counters of this process.
pub fn stat_now() -> Option<ProcStat> {
    parse_stat(&fs::read_to_string("/proc/self/stat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tgnn-hostbench\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t 1203456 kB\nVmSize:\t 1100000 kB\nVmHWM:\t  901234 kB\nVmRSS:\t  512000 kB\n";

    #[test]
    fn vm_hwm_is_found_among_other_vm_lines() {
        assert_eq!(parse_vm_hwm_kb(STATUS), Some(901_234));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t 12 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn stat_fields_survive_a_hostile_command_name() {
        let stat = "4242 (gnn) bench (x) S 1 4242 4242 0 -1 4194304 98765 0 3 0 \
            1500 250 0 0 20 0 1 0 100 1000000 2000 18446744073709551615 0 0 0 0 0 0 0 0 0";
        assert_eq!(
            parse_stat(stat),
            Some(ProcStat {
                minor_faults: 98_765,
                utime_ticks: 1_500,
                stime_ticks: 250,
            })
        );
        assert_eq!(parse_stat("no parenthesis here"), None);
        assert_eq!(parse_stat("1 (short) S 1 2"), None);
    }

    #[test]
    fn this_process_is_readable() {
        assert!(peak_rss_mb().expect("/proc/self/status") > 0.0);
        assert!(stat_now().is_some());
    }
}
