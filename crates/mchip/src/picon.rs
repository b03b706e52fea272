//! PICon multiplexing (§2.4).
//!
//! "PICons are long lived congrams between MCHIP entities, and their
//! purpose is to allow multiplexing of traffic from a number of users
//! and applications when appropriate, and to carry data for UCons that
//! are being set up or reconfigured. In this respect, PICons are like
//! dynamic leased packet switched internet channels."
//!
//! A [`PiconMux`] wraps subflow frames in the PICon's data frames with
//! a 6-octet multiplexing sub-header (subflow id + length); the far
//! side's [`PiconMux`] demultiplexes. The canonical use is **zero
//! round-trip UCon start-up**: an application begins sending the moment
//! it requests a UCon, its early frames ride the PICon, and once the
//! UCon confirms the flow cuts over to the dedicated channel — the
//! congram abstraction's answer to connection-setup latency.

use crate::congram::CongramId;
use gw_wire::{Error, Result};

/// Size of the multiplexing sub-header: 4-octet subflow id + 2-octet
/// length.
const MUX_HEADER: usize = 6;

/// A subflow identifier within a PICon (the UCon's end-to-end id).
pub type SubflowId = CongramId;

/// Multiplexes subflow frames onto a PICon and demultiplexes arrivals.
///
/// The mux is symmetric: each MCHIP entity holds one per PICon.
///
/// ```
/// use gw_mchip::congram::CongramId;
/// use gw_mchip::picon::PiconMux;
///
/// let mut tx = PiconMux::new();
/// let mut rx = PiconMux::new();
/// let wire = PiconMux::bundle(&[
///     tx.wrap(CongramId(1), b"early").unwrap(),
///     tx.wrap(CongramId(2), b"data").unwrap(),
/// ]);
/// let frames = rx.unwrap_all(&wire).unwrap();
/// assert_eq!(frames[0], (CongramId(1), b"early".to_vec()));
/// assert_eq!(frames[1], (CongramId(2), b"data".to_vec()));
/// ```
#[derive(Debug, Default)]
pub struct PiconMux {
    /// Octets carried per subflow (for the resource manager's
    /// utilization reports, §2.3).
    carried: std::collections::HashMap<u32, u64>,
}

impl PiconMux {
    /// A fresh mux.
    pub fn new() -> PiconMux {
        PiconMux::default()
    }

    /// Wrap one subflow frame for transmission on the PICon. Several
    /// wrapped frames may be concatenated into one PICon payload.
    pub fn wrap(&mut self, subflow: SubflowId, frame: &[u8]) -> Result<Vec<u8>> {
        if frame.len() > u16::MAX as usize {
            return Err(Error::TooLong);
        }
        let mut out = Vec::with_capacity(MUX_HEADER + frame.len());
        out.extend_from_slice(&subflow.0.to_be_bytes());
        out.extend_from_slice(&(frame.len() as u16).to_be_bytes());
        out.extend_from_slice(frame);
        *self.carried.entry(subflow.0).or_insert(0) += frame.len() as u64;
        Ok(out)
    }

    /// Concatenate several wrapped frames into one PICon payload.
    pub fn bundle(parts: &[Vec<u8>]) -> Vec<u8> {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let mut out = Vec::with_capacity(total);
        for p in parts {
            out.extend_from_slice(p);
        }
        out
    }

    /// Demultiplex a PICon payload into `(subflow, frame)` pairs.
    pub fn unwrap_all(&mut self, payload: &[u8]) -> Result<Vec<(SubflowId, Vec<u8>)>> {
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < payload.len() {
            let hdr = payload.get(i..i + MUX_HEADER).ok_or(Error::Truncated)?;
            let subflow = u32::from_be_bytes(hdr[..4].try_into().expect("4 bytes"));
            let len = u16::from_be_bytes(hdr[4..6].try_into().expect("2 bytes")) as usize;
            let body = payload.get(i + MUX_HEADER..i + MUX_HEADER + len).ok_or(Error::Truncated)?;
            out.push((CongramId(subflow), body.to_vec()));
            i += MUX_HEADER + len;
        }
        Ok(out)
    }

    /// Octets this mux has carried for a subflow.
    pub fn carried(&self, subflow: SubflowId) -> u64 {
        self.carried.get(&subflow.0).copied().unwrap_or(0)
    }

    /// Number of distinct subflows seen.
    pub fn subflows(&self) -> usize {
        self.carried.len()
    }
}

/// The sender-side cut-over helper: buffers a UCon's early traffic on a
/// PICon until the UCon confirms, then switches to the dedicated path.
///
/// State machine: `OnPicon` (frames ride the PICon) → `Dedicated`
/// (frames use the UCon's own channel). The paper's plesio-reliable
/// semantics permit the cut-over without a flush handshake — ordering
/// across the switch is statistical, like everything else about a
/// congram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UconPath {
    /// Early data multiplexed onto the PICon (§2.4).
    OnPicon,
    /// The UCon's dedicated channel is up.
    Dedicated,
}

/// Tracks which path each pending UCon's traffic takes.
#[derive(Debug, Default)]
pub struct CutOver {
    paths: std::collections::HashMap<u32, UconPath>,
}

impl CutOver {
    /// A fresh tracker.
    pub fn new() -> CutOver {
        CutOver::default()
    }

    /// A UCon began setup: its traffic rides the PICon.
    pub fn begin(&mut self, ucon: SubflowId) {
        self.paths.insert(ucon.0, UconPath::OnPicon);
    }

    /// The UCon confirmed: traffic cuts over to the dedicated channel.
    pub fn confirm(&mut self, ucon: SubflowId) {
        self.paths.insert(ucon.0, UconPath::Dedicated);
    }

    /// The UCon ended (teardown or reject): forget it.
    pub fn end(&mut self, ucon: SubflowId) {
        self.paths.remove(&ucon.0);
    }

    /// Which path the UCon's next frame should take, if it is known.
    pub fn path(&self, ucon: SubflowId) -> Option<UconPath> {
        self.paths.get(&ucon.0).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_unwrap_roundtrip() {
        let mut tx = PiconMux::new();
        let mut rx = PiconMux::new();
        let w = tx.wrap(CongramId(7), b"early data").unwrap();
        let got = rx.unwrap_all(&w).unwrap();
        assert_eq!(got, vec![(CongramId(7), b"early data".to_vec())]);
    }

    #[test]
    fn bundling_preserves_order_and_subflows() {
        let mut tx = PiconMux::new();
        let parts = vec![
            tx.wrap(CongramId(1), b"a1").unwrap(),
            tx.wrap(CongramId(2), b"b1").unwrap(),
            tx.wrap(CongramId(1), b"a2").unwrap(),
        ];
        let payload = PiconMux::bundle(&parts);
        let mut rx = PiconMux::new();
        let got = rx.unwrap_all(&payload).unwrap();
        assert_eq!(
            got,
            vec![
                (CongramId(1), b"a1".to_vec()),
                (CongramId(2), b"b1".to_vec()),
                (CongramId(1), b"a2".to_vec()),
            ]
        );
        assert_eq!(tx.subflows(), 2);
        assert_eq!(tx.carried(CongramId(1)), 4);
    }

    #[test]
    fn empty_frames_allowed() {
        let mut tx = PiconMux::new();
        let w = tx.wrap(CongramId(3), b"").unwrap();
        let mut rx = PiconMux::new();
        assert_eq!(rx.unwrap_all(&w).unwrap(), vec![(CongramId(3), vec![])]);
    }

    #[test]
    fn truncated_payload_rejected() {
        let mut tx = PiconMux::new();
        let w = tx.wrap(CongramId(1), b"abcdef").unwrap();
        let mut rx = PiconMux::new();
        assert_eq!(rx.unwrap_all(&w[..w.len() - 1]), Err(Error::Truncated));
        assert_eq!(rx.unwrap_all(&w[..3]), Err(Error::Truncated));
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut tx = PiconMux::new();
        assert_eq!(tx.wrap(CongramId(1), &vec![0u8; 70_000]), Err(Error::TooLong));
    }

    #[test]
    fn cutover_state_machine() {
        let mut co = CutOver::new();
        assert_eq!(co.path(CongramId(9)), None);
        co.begin(CongramId(9));
        assert_eq!(co.path(CongramId(9)), Some(UconPath::OnPicon));
        co.confirm(CongramId(9));
        assert_eq!(co.path(CongramId(9)), Some(UconPath::Dedicated));
        co.end(CongramId(9));
        assert_eq!(co.path(CongramId(9)), None);
    }
}
