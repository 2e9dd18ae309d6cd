//! Process memory readings from `/proc/self/status`.

/// A `/proc/self/status` field in KiB (`VmRSS`, `VmHWM`); 0 where the
/// file is unavailable.
pub fn status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        assert!(status_kib("VmRSS") > 0);
        assert!(status_kib("VmHWM") >= status_kib("VmRSS"));
        assert_eq!(status_kib("NoSuchField"), 0);
    }
}
