//! Host facts and process accounting read from Linux's `/proc` and
//! `/sys`.

/// A field of `/proc/self/status` in KiB (`VmHWM`, `VmRSS`, ...).
pub fn status_kib(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Reset this process's peak resident set (`VmHWM`) to its current
/// resident set, so a later `VmHWM` read covers only what follows.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Size in bytes of the highest-level CPU cache `/sys` reports.
pub fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| {
        let p = e.ok()?.path();
        let level: u32 = std::fs::read_to_string(p.join("level"))
            .ok()?
            .trim()
            .parse()
            .ok()?;
        let size = std::fs::read_to_string(p.join("size")).ok()?;
        Some((level, parse_size(size.trim())?))
    })
    .max()
    .map(|(_, bytes)| bytes)
}

fn parse_size(s: &str) -> Option<u64> {
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// Steal time over an interval: CPU time the hypervisor gave to other
/// guests while this one had work (the `steal` column of `/proc/stat`).
pub struct Steal {
    ticks: Option<u64>,
    t0: std::time::Instant,
}

impl Steal {
    /// Start an interval.
    pub fn start() -> Steal {
        Steal {
            ticks: steal_ticks(),
            t0: std::time::Instant::now(),
        }
    }

    /// Stolen share of all CPUs' time since [`Steal::start`] (0 when
    /// `/proc/stat` is unreadable).
    pub fn share(&self) -> f64 {
        let (Some(a), Some(b)) = (self.ticks, steal_ticks()) else {
            return 0.0;
        };
        // USER_HZ is 100 on every Linux ABI.
        let capacity = self.t0.elapsed().as_secs_f64() * 100.0 * nproc() as f64;
        b.saturating_sub(a) as f64 / capacity.max(1.0)
    }
}

/// Total steal ticks of all CPUs.
fn steal_ticks() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = text.lines().next()?.strip_prefix("cpu ")?;
    cpu.split_whitespace().nth(7)?.parse().ok()
}

/// Online CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_size("307200K"), Some(300 << 20));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("64"), Some(64));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn steal_share_is_a_share() {
        let s = Steal::start();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!((0.0..=1.0).contains(&s.share()));
    }
}
