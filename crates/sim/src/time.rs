//! Simulated time in integer nanoseconds.
//!
//! The gateway hardware runs at 25 MHz, so one clock cycle is exactly
//! 40 ns (§5.5 "The SPP is designed to operate at a clock rate of 25
//! Mhz, with a 40ns clock cycle"); integer nanoseconds represent every
//! quantity in the paper without rounding. FDDI's 100 Mb/s data rate
//! makes one octet 80 ns on the ring; ATM at 155.52 Mb/s makes one
//! 53-octet cell ≈ 2726 ns.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// Nanoseconds per gateway clock cycle (25 MHz, §5.5).
pub const CYCLE_NS: u64 = 40;
/// Nanoseconds per second.
const NS_PER_SEC: u64 = 1_000_000_000;

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// From nanoseconds.
    pub const fn from_ns(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// From microseconds.
    pub const fn from_us(us: u64) -> SimTime {
        SimTime(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_ms(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * NS_PER_SEC)
    }

    /// From gateway clock cycles at 25 MHz (40 ns each).
    pub const fn from_cycles(cycles: u64) -> SimTime {
        SimTime(cycles * CYCLE_NS)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NS_PER_SEC as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Round *up* to the next cycle boundary — hardware latches inputs on
    /// clock edges, so an event between edges takes effect at the next.
    pub const fn ceil_to_cycle(self) -> SimTime {
        SimTime(self.0.div_ceil(CYCLE_NS) * CYCLE_NS)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NS_PER_SEC {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Transmission time of `bytes` octets at `bits_per_sec`, rounded up to
/// a whole nanosecond.
pub fn tx_time(bytes: usize, bits_per_sec: u64) -> SimTime {
    let bits = bytes as u64 * 8;
    SimTime((bits * NS_PER_SEC).div_ceil(bits_per_sec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_is_40ns() {
        assert_eq!(SimTime::from_cycles(1).as_ns(), 40);
        assert_eq!(SimTime::from_cycles(10).as_ns(), 400); // §5.5 latch+decode
        assert_eq!(SimTime::from_cycles(15).as_ns(), 600); // §6.3 MPP data path
        assert_eq!(SimTime::from_cycles(2).as_ns(), 80); //   §6.3 MPP control
    }

    #[test]
    fn unit_constructors() {
        assert_eq!(SimTime::from_us(3).as_ns(), 3_000);
        assert_eq!(SimTime::from_ms(2).as_ns(), 2_000_000);
        assert_eq!(SimTime::from_secs(1).as_ns(), NS_PER_SEC);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(100);
        let b = SimTime::from_ns(40);
        assert_eq!((a + b).as_ns(), 140);
        assert_eq!((a - b).as_ns(), 60);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c.as_ns(), 140);
    }

    #[test]
    fn ceil_to_cycle() {
        assert_eq!(SimTime::from_ns(0).ceil_to_cycle().as_ns(), 0);
        assert_eq!(SimTime::from_ns(1).ceil_to_cycle().as_ns(), 40);
        assert_eq!(SimTime::from_ns(40).ceil_to_cycle().as_ns(), 40);
        assert_eq!(SimTime::from_ns(41).ceil_to_cycle().as_ns(), 80);
    }

    #[test]
    fn tx_time_fddi_and_atm() {
        // One octet at 100 Mb/s is 80 ns.
        assert_eq!(tx_time(1, 100_000_000).as_ns(), 80);
        // A max FDDI frame: 4500 * 80 ns = 360 us.
        assert_eq!(tx_time(4500, 100_000_000).as_ns(), 360_000);
        // A 53-octet cell at 155.52 Mb/s ≈ 2726 ns.
        let t = tx_time(53, 155_520_000).as_ns();
        assert!((2726..=2727).contains(&t), "got {t}");
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 bit at 3 bps = 333333333.33 ns -> rounds up.
        assert_eq!(tx_time(1, 24_000_000_000).as_ns(), 1); // 8 bits at 24 Gbps = 0.33ns -> 1
    }

    #[test]
    fn display_scales() {
        assert_eq!(SimTime::from_ns(5).to_string(), "5ns");
        assert_eq!(SimTime::from_ns(5_000).to_string(), "5.000us");
        assert_eq!(SimTime::from_ns(5_000_000).to_string(), "5.000ms");
        assert_eq!(SimTime::from_secs(5).to_string(), "5.000000s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_ns(1) < SimTime::from_ns(2));
        assert_eq!(SimTime::ZERO, SimTime::from_ns(0));
    }
}
