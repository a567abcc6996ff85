//! Process accounting read from `/proc/self`: CPU time and peak resident set.

/// Kernel clock ticks per second of the `utime`/`stime` fields (`USER_HZ`,
/// 100 on every Linux architecture the benchmark targets).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time, in clock ticks, from the text of
/// `/proc/<pid>/stat`. The command name (field 2) may contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14 and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) in kibibytes, from the text of
/// `/proc/<pid>/status`.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let value = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(value)
}

/// CPU seconds (user + system, all threads) this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable on Linux");
    let ticks = parse_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime");
    ticks as f64 / USER_HZ
}

/// Peak resident set size of this process so far, in mebibytes.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable on Linux");
    parse_vmhwm_kib(&status).expect("/proc/self/status reports VmHWM") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_sums_utime_and_stime() {
        let stat = "4242 (perf bench) R 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    517 83 0 0 20 0 9 0 123456 98765432 4321 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(600));
        // A command name holding ") " must not shift the fields.
        let tricky = "7 (a) b) S 1 7 7 0 -1 0 0 0 0 0 11 22 0 0 20 0 1 0 5 6 7 8";
        assert_eq!(parse_cpu_ticks(tricky), Some(33));
        assert_eq!(parse_cpu_ticks("12 (short) R 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn status_parser_reads_vmhwm() {
        let status = "Name:\tperfbench\nVmPeak:\t  812340 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   50000 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(51234));
        assert_eq!(parse_vmhwm_kib("VmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t 10 MB\n"), None);
    }

    #[test]
    fn live_process_accounting_is_readable() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
