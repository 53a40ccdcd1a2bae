//! Checkpoint/restart of the flow state — the operational requirement of
//! multi-day breathing-cycle runs (the paper's wall-times per cycle range
//! up to 25 h even at scale).
//!
//! A deliberately simple, self-describing little-endian binary format
//! (magic + version + sized f64 blocks), written with std only. Version 2
//! carries the full two-level BDF history (`velocity_old`, `conv_old`,
//! `dt_old`, `step_count`), so a restored solver continues with the same
//! BDF2 extrapolation it would have used without the interruption.
//! Version 3 appends the ventilator's cycle state (`cycle_inhaled`,
//! `last_cycle`, `tidal_history`), so a restored controller adapts Δp at
//! its next cycle boundary from the whole cycle's inhaled volume. Version 2
//! streams still read, with that state at its start-of-run defaults.
//!
//! Robustness contract: [`Checkpoint::read`] never panics or makes
//! unbounded allocations on corrupt/truncated/hostile input — every
//! malformed stream is an `io::Error` — and [`Checkpoint::restore`]
//! rejects snapshots whose field lengths do not match the target solver
//! instead of asserting. Campaign runtimes rely on this: a checkpoint
//! file torn by a crash must surface as a recoverable error, not a panic.

use crate::solver::FlowSolver;
use crate::ventilation::VentilationModel;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"DGFLOWCK";
const VERSION: u32 = 3;

/// A serializable snapshot of the time-dependent state (mesh/operator
/// setup is rebuilt deterministically from the same inputs).
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Simulated time.
    pub time: f64,
    /// Current step size.
    pub dt: f64,
    /// Previous step size.
    pub dt_old: f64,
    /// Steps taken.
    pub step_count: u64,
    /// Velocity field at `t^n`.
    pub velocity: Vec<f64>,
    /// Velocity field at `t^{n-1}` (BDF2 history).
    pub velocity_old: Vec<f64>,
    /// Convective term at `t^{n-1}` (extrapolation history).
    pub conv_old: Vec<f64>,
    /// Pressure field.
    pub pressure: Vec<f64>,
    /// Ventilator driving pressure (controller state).
    pub delta_p: f64,
    /// Compartment volumes.
    pub compartment_volumes: Vec<f64>,
    /// Volume inhaled so far in the current breathing cycle (m³).
    pub cycle_inhaled: f64,
    /// Breathing cycle of the ventilator's last update.
    pub last_cycle: u64,
    /// Completed-cycle tidal volumes (controller history).
    pub tidal_history: Vec<f64>,
}

fn write_f64s(out: &mut dyn Write, v: &[f64]) -> io::Result<()> {
    out.write_all(&(v.len() as u64).to_le_bytes())?;
    for x in v {
        out.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

fn read_f64s(inp: &mut dyn Read) -> io::Result<Vec<f64>> {
    let mut n8 = [0u8; 8];
    inp.read_exact(&mut n8)?;
    let n = u64::from_le_bytes(n8);
    let n: usize = n
        .try_into()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "field length overflows usize"))?;
    // A hostile/torn length prefix must not trigger an unbounded
    // allocation before the stream proves it actually carries the data:
    // grow in bounded steps and let `read_exact` fail on truncation.
    let mut v = Vec::new();
    let mut b = [0u8; 8];
    for _ in 0..n {
        if v.len() == v.capacity() {
            v.reserve((n - v.len()).min(1 << 16));
        }
        inp.read_exact(&mut b)?;
        v.push(f64::from_le_bytes(b));
    }
    Ok(v)
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Checkpoint {
    /// Capture the restartable state of a solver (+ optional ventilation
    /// model).
    pub fn capture<const L: usize>(
        solver: &FlowSolver<L>,
        vent: Option<&VentilationModel>,
    ) -> Self {
        Self {
            time: solver.time,
            dt: solver.dt,
            dt_old: solver.dt_old,
            step_count: solver.step_count as u64,
            velocity: solver.velocity.clone(),
            velocity_old: solver.velocity_old.clone(),
            conv_old: solver.conv_old.clone(),
            pressure: solver.pressure.clone(),
            delta_p: vent.map(|v| v.settings.delta_p).unwrap_or(0.0),
            compartment_volumes: vent
                .map(|v| v.compartments.iter().map(|c| c.volume).collect())
                .unwrap_or_default(),
            cycle_inhaled: vent.map(|v| v.cycle_inhaled).unwrap_or(0.0),
            last_cycle: vent.map(|v| v.last_cycle as u64).unwrap_or(0),
            tidal_history: vent.map(|v| v.tidal_history.clone()).unwrap_or_default(),
        }
    }

    /// Restore into a freshly constructed solver of identical setup,
    /// including the BDF2 step history, so the next [`FlowSolver::step`]
    /// is bit-for-bit the step the interrupted run would have taken. The
    /// ventilation model gets back its controller and cycle state; its
    /// boundary pressures are the caller's to recompute
    /// ([`VentilationModel::couple`] with `dt = 0`).
    ///
    /// # Errors
    /// Fails with [`io::ErrorKind::InvalidData`] when any field length
    /// does not match the target solver — the snapshot belongs to a
    /// different discretization.
    pub fn restore<const L: usize>(
        &self,
        solver: &mut FlowSolver<L>,
        vent: Option<&mut VentilationModel>,
    ) -> io::Result<()> {
        if self.velocity.len() != solver.velocity.len() {
            return Err(invalid("checkpoint velocity length mismatch"));
        }
        if self.velocity_old.len() != solver.velocity.len() {
            return Err(invalid("checkpoint velocity_old length mismatch"));
        }
        if self.conv_old.len() != solver.velocity.len() {
            return Err(invalid("checkpoint conv_old length mismatch"));
        }
        if self.pressure.len() != solver.pressure.len() {
            return Err(invalid("checkpoint pressure length mismatch"));
        }
        if let Some(v) = &vent {
            if self.compartment_volumes.len() != v.compartments.len() {
                return Err(invalid("checkpoint compartment count mismatch"));
            }
        }
        solver.velocity = self.velocity.clone();
        solver.velocity_old = self.velocity_old.clone();
        solver.conv_old = self.conv_old.clone();
        solver.pressure = self.pressure.clone();
        solver.time = self.time;
        solver.dt = self.dt;
        solver.dt_old = self.dt_old;
        solver.step_count = usize::try_from(self.step_count)
            .map_err(|_| invalid("checkpoint step count overflows usize"))?;
        if let Some(v) = vent {
            v.last_cycle = usize::try_from(self.last_cycle)
                .map_err(|_| invalid("checkpoint cycle index overflows usize"))?;
            v.cycle_inhaled = self.cycle_inhaled;
            v.tidal_history = self.tidal_history.clone();
            v.settings.delta_p = self.delta_p;
            for (c, &vol) in v.compartments.iter_mut().zip(&self.compartment_volumes) {
                c.volume = vol;
            }
        }
        Ok(())
    }

    /// Serialize.
    pub fn write(&self, out: &mut dyn Write) -> io::Result<()> {
        out.write_all(MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&self.time.to_le_bytes())?;
        out.write_all(&self.dt.to_le_bytes())?;
        out.write_all(&self.dt_old.to_le_bytes())?;
        out.write_all(&self.step_count.to_le_bytes())?;
        out.write_all(&self.delta_p.to_le_bytes())?;
        write_f64s(out, &self.velocity)?;
        write_f64s(out, &self.velocity_old)?;
        write_f64s(out, &self.conv_old)?;
        write_f64s(out, &self.pressure)?;
        write_f64s(out, &self.compartment_volumes)?;
        out.write_all(&self.cycle_inhaled.to_le_bytes())?;
        out.write_all(&self.last_cycle.to_le_bytes())?;
        write_f64s(out, &self.tidal_history)?;
        Ok(())
    }

    /// Deserialize a version 2 or 3 stream; rejects wrong magic/version and
    /// truncated input.
    pub fn read(inp: &mut dyn Read) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        inp.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(invalid("bad magic"));
        }
        let mut b4 = [0u8; 4];
        inp.read_exact(&mut b4)?;
        let version = u32::from_le_bytes(b4);
        if version != 2 && version != VERSION {
            return Err(invalid("bad version"));
        }
        let mut b8 = [0u8; 8];
        let mut f = || -> io::Result<f64> {
            inp.read_exact(&mut b8)?;
            Ok(f64::from_le_bytes(b8))
        };
        let time = f()?;
        let dt = f()?;
        let dt_old = f()?;
        let mut c8 = [0u8; 8];
        inp.read_exact(&mut c8)?;
        let step_count = u64::from_le_bytes(c8);
        inp.read_exact(&mut c8)?;
        let delta_p = f64::from_le_bytes(c8);
        let mut ck = Self {
            time,
            dt,
            dt_old,
            step_count,
            delta_p,
            velocity: read_f64s(inp)?,
            velocity_old: read_f64s(inp)?,
            conv_old: read_f64s(inp)?,
            pressure: read_f64s(inp)?,
            compartment_volumes: read_f64s(inp)?,
            cycle_inhaled: 0.0,
            last_cycle: 0,
            tidal_history: Vec::new(),
        };
        if version == VERSION {
            inp.read_exact(&mut c8)?;
            ck.cycle_inhaled = f64::from_le_bytes(c8);
            inp.read_exact(&mut c8)?;
            ck.last_cycle = u64::from_le_bytes(c8);
            ck.tidal_history = read_f64s(inp)?;
        }
        Ok(ck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            time: 1.25,
            dt: 1e-4,
            dt_old: 9e-5,
            step_count: 12345,
            velocity: (0..100).map(|i| f64::from(i) * 0.1).collect(),
            velocity_old: (0..100).map(|i| f64::from(i) * 0.09).collect(),
            conv_old: (0..100).map(|i| f64::from(i) * -0.3).collect(),
            pressure: (0..40).map(|i| -f64::from(i)).collect(),
            delta_p: 1200.0,
            compartment_volumes: vec![1e-4, 2e-4],
            cycle_inhaled: 3e-4,
            last_cycle: 7,
            tidal_history: vec![4.5e-4, 5.1e-4],
        }
    }

    #[test]
    fn roundtrip_through_bytes() {
        let ck = sample();
        let mut buf = Vec::new();
        ck.write(&mut buf).unwrap();
        let back = Checkpoint::read(&mut buf.as_slice()).unwrap();
        assert_eq!(ck, back);
    }

    #[test]
    fn reads_version_2_with_default_cycle_state() {
        let mut ck = sample();
        let mut buf = Vec::new();
        ck.write(&mut buf).unwrap();
        // a v2 stream is the v3 one without its trailing cycle state
        buf[8..12].copy_from_slice(&2u32.to_le_bytes());
        buf.truncate(buf.len() - 8 * (3 + ck.tidal_history.len()));
        ck.cycle_inhaled = 0.0;
        ck.last_cycle = 0;
        ck.tidal_history.clear();
        assert_eq!(Checkpoint::read(&mut buf.as_slice()).unwrap(), ck);
    }

    #[test]
    fn rejects_corrupt_data() {
        let ck = sample();
        let mut buf = Vec::new();
        ck.write(&mut buf).unwrap();
        buf[0] = b'X';
        assert!(Checkpoint::read(&mut buf.as_slice()).is_err());
        // truncation
        let mut buf2 = Vec::new();
        ck.write(&mut buf2).unwrap();
        buf2.truncate(buf2.len() - 4);
        assert!(Checkpoint::read(&mut buf2.as_slice()).is_err());
    }

    #[test]
    fn hostile_length_prefix_errors_without_huge_allocation() {
        // magic + version + 5 scalars, then a velocity block claiming
        // u64::MAX elements but carrying none.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        for _ in 0..5 {
            buf.extend_from_slice(&0.0f64.to_le_bytes());
        }
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = Checkpoint::read(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
