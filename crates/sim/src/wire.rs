//! The boundary between the engine and the layers that ride the wire.
//!
//! The engine owns one [`Wire`]: the run's clock, queue, processors,
//! fault domain, channel, clocks and observer, and the logs those feed.
//! The transport ([`crate::transport`]), the failure detector
//! ([`crate::detect`]), clock sync ([`crate::sync`]) and the gray fault
//! edges ([`crate::faults`]) each own the handlers of their event family
//! and take `&mut Wire` beside their own state. A layer hands back the
//! protocol work only the engine may do (deliver, release or cancel a
//! job) as an [`Effect`]. No layer calls back into the engine.

use rtsync_core::task::{ProcessorId, TaskSet};
use rtsync_core::time::{Dur, Time};

use crate::controller::FlatIndex;
use crate::detect::{Degradation, DegradationEvent, DetectState};
use crate::engine::SimConfig;
use crate::event::{EventKind, EventQueue};
use crate::faults::{FaultState, GrayFamily};
use crate::job::JobId;
use crate::nonideal::channel::SendPlan;
use crate::nonideal::{ChannelState, LocalClock};
use crate::observe::{Note, Observer};
use crate::processor::Processor;
use crate::sync::SyncState;
use crate::trace::Trace;
use crate::transport::TransportState;

/// The optional layers. A run without them never builds their state.
pub(crate) struct Layers {
    /// Endpoint transport; `None` routes signals over the bare channel.
    pub(crate) transport: Option<TransportState>,
    /// Failure detector; `None` runs no heartbeats.
    pub(crate) detect: Option<DetectState>,
    /// Clock sync; `None` runs no sync rounds.
    pub(crate) sync: Option<SyncState>,
}

/// The engine state a layer handler touches, owned by the engine (the
/// component shape of `tick(now, &mut System)`).
pub(crate) struct Wire<'a, O: Observer> {
    pub(crate) now: Time,
    pub(crate) horizon: Time,
    pub(crate) cfg: &'a SimConfig,
    pub(crate) set: &'a TaskSet,
    pub(crate) flat: FlatIndex,
    /// Released instance counts per flat subtask index.
    pub(crate) released: Vec<u64>,
    pub(crate) queue: EventQueue,
    pub(crate) procs: Vec<Processor>,
    /// The fault domain: the schedule's next edge, partitions, gray
    /// links, recovery bookkeeping. Empty when no faults are configured.
    pub(crate) faults: FaultState,
    /// Signal-channel state; `None` routes signals instantaneously.
    pub(crate) channel: Option<ChannelState>,
    /// Each processor's clock; a sync correction steps its offset.
    pub(crate) clocks: Vec<LocalClock>,
    /// The structured degradation log.
    pub(crate) log: Vec<DegradationEvent>,
    /// Executed ticks per processor.
    pub(crate) busy_ticks: Vec<Dur>,
    /// The schedule trace, when recorded.
    pub(crate) trace: Option<Trace>,
    /// Processors touched during the current instant, awaiting the
    /// end-of-instant reschedule.
    pub(crate) dirty: Vec<bool>,
    /// Instrumentation hooks (see [`crate::observe`]); `NoopObserver`
    /// for unobserved runs, compiled away by monomorphization.
    pub(crate) obs: &'a mut O,
}

/// Protocol work a layer hands back to the engine.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Effect {
    /// A fresh payload reached its receiver: deliver `job` in order.
    Deliver(JobId),
    /// The sender abandoned the frame carrying `job` after `attempts`
    /// transmissions.
    Abandon { job: JobId, attempts: u32 },
    /// One step of a degraded-release march: force-release `release`
    /// (unless its instance already was), then queue `next`.
    March {
        release: Option<JobId>,
        next: (Time, EventKind),
    },
}

impl<O: Observer> Wire<'_, O> {
    /// Reports `note` to the observer at the current instant.
    #[inline]
    pub(crate) fn note(&mut self, note: Note) {
        self.obs.on(self.now, note);
    }

    /// Logs one structured degradation event (observer hook + outcome
    /// record).
    pub(crate) fn degrade(&mut self, kind: Degradation) {
        self.note(Note::Degradation(kind));
        self.log.push(DegradationEvent { at: self.now, kind });
    }

    /// Queues `kind` at `at` unless that lies past the horizon, where the
    /// run stops anyway.
    pub(crate) fn push_by_horizon(&mut self, at: Time, kind: EventKind) {
        if at <= self.horizon {
            self.queue.push(at, kind);
        }
    }

    /// The processor hosting `job`.
    pub(crate) fn host(&self, job: JobId) -> usize {
        self.set.subtask(job.subtask()).processor().index()
    }

    /// The signal channel. Layers exist only with one: the transport and
    /// the sync layer always synthesize a channel, and the detector rides
    /// the transport.
    pub(crate) fn channel(&mut self) -> &mut ChannelState {
        self.channel
            .as_mut()
            .expect("wire layers run only with a channel")
    }

    /// Settles `proc`'s execution up to now: busy time, the observer's
    /// slice and the trace.
    pub(crate) fn advance_proc(&mut self, proc: ProcessorId) {
        let slice = self.procs[proc.index()].advance(self.now);
        if let Some(slice) = slice {
            self.busy_ticks[proc.index()] += slice.end - slice.start;
            self.note(Note::Slice {
                proc: proc.index(),
                job: slice.job,
                start: slice.start,
                end: slice.end,
            });
            if let Some(tr) = &mut self.trace {
                tr.push_slice(proc, slice);
            }
        }
    }

    /// Clears `proc`'s milestone slot if the processor just invalidated
    /// its milestone (crash, stall edge, rate change), so a superseded
    /// milestone never fires.
    pub(crate) fn drop_stale_milestone(&mut self, proc: ProcessorId) {
        if !self.procs[proc.index()].has_milestone() {
            self.queue.disarm(proc.index());
        }
    }

    /// Marks `proc` for the end-of-instant reschedule.
    pub(crate) fn mark_dirty(&mut self, proc: ProcessorId) {
        self.dirty[proc.index()] = true;
    }

    /// The end of every priced send: the gray-link tax on top of the
    /// channel's `plan`, then one `kind` per delivered copy after its
    /// latency and the `src`→`dst` link's directional extra delay (zero
    /// without an asymmetry model). `false` when the degraded link dropped
    /// the frame.
    pub(crate) fn land(
        &mut self,
        plan: &SendPlan,
        src: usize,
        dst: usize,
        family: GrayFamily,
        kind: EventKind,
    ) -> bool {
        let Some(gray) = self.faults.gray_penalty(src, dst, family) else {
            return false;
        };
        let asymmetry = self.cfg.nonideal.asymmetry.as_ref();
        let extra = asymmetry.map_or(Dur::ZERO, |a| a.extra(src, dst));
        for &delay in plan.deliveries() {
            self.queue.push(self.now + delay + extra + gray, kind);
        }
        true
    }

    /// The next instance of flat subtask `fi` that neither released nor
    /// got cancelled.
    pub(crate) fn next_unreleased(&self, fi: usize) -> u64 {
        let mut m = self.released[fi];
        while self.faults.is_cancelled(fi, m) {
            m += 1;
        }
        m
    }
}
