//! The boundary between the engine and the layers that ride the wire.
//!
//! The transport ([`crate::transport`]), the failure detector
//! ([`crate::detect`]) and clock sync ([`crate::sync`]) each own the
//! handlers of their event family. The engine hands a handler the state
//! it may touch as one borrowed [`Wire`], for one event, and the handler
//! hands back the protocol work only the engine may do (deliver, release
//! or cancel a job) as an [`Effect`]. No layer calls back into the engine.

use rtsync_core::task::TaskSet;
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

/// The engine state one wire-layer handler touches, borrowed for one
/// event (the component shape of `tick(now, &mut System)`).
pub(crate) struct Wire<'a, O: Observer> {
    pub(crate) now: Time,
    pub(crate) horizon: Time,
    pub(crate) cfg: &'a SimConfig,
    pub(crate) set: &'a TaskSet,
    pub(crate) flat: &'a FlatIndex,
    /// Released instance counts per flat subtask index.
    pub(crate) released: &'a [u64],
    pub(crate) queue: &'a mut EventQueue,
    pub(crate) procs: &'a [Processor],
    pub(crate) faults: &'a mut FaultState,
    pub(crate) channel: &'a mut ChannelState,
    /// Each processor's clock; a sync correction steps its offset.
    pub(crate) clocks: &'a mut [LocalClock],
    /// The structured degradation log.
    pub(crate) log: &'a mut Vec<DegradationEvent>,
    pub(crate) obs: &'a mut O,
}

/// Protocol work a layer hands back to the engine.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Effect {
    /// A fresh payload reached its receiver: deliver `job` in order.
    Deliver(JobId),
    /// The channel dropped the signal releasing `job`.
    Lost(JobId),
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
