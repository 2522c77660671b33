//! Property tests of the simulator's scheduling core: the event-driven
//! [`Processor`] is checked against a brute-force tick-by-tick reference
//! scheduler on random job sets, and the event queue's ordering contract
//! is exercised under random loads.

use proptest::prelude::*;
use rtsync_core::task::{Priority, ProcessorId, SubtaskId, TaskId};
use rtsync_core::time::{Dur, Time};
use rtsync_sim::event::{EventKind, EventQueue, ReferenceEventQueue};
use rtsync_sim::priority_profile::PriorityProfile;
use rtsync_sim::processor::{Milestone, Processor, Resched};
use rtsync_sim::JobId;

#[derive(Clone, Copy, Debug)]
struct JobSpec {
    release: i64,
    priority: u32,
    budget: i64,
    preemptible: bool,
}

/// Brute-force reference: simulate tick by tick. Jobs are identified by
/// their index; equal priorities break ties by release time then index
/// (the FIFO the processor promises). Returns completion times.
fn oracle(jobs: &[JobSpec]) -> Vec<i64> {
    #[derive(Clone, Copy)]
    struct Live {
        idx: usize,
        remaining: i64,
        started: bool,
    }
    let mut completion = vec![0i64; jobs.len()];
    let mut live: Vec<Live> = Vec::new();
    let mut current: Option<usize> = None; // index into `live`
    let mut t = 0i64;
    let mut done = 0;
    while done < jobs.len() {
        // Completions exactly at t (from the previous tick of work).
        if let Some(ci) = current {
            if live[ci].remaining == 0 {
                completion[live[ci].idx] = t;
                live.remove(ci);
                current = None;
                done += 1;
            }
        }
        // Releases at t.
        for (idx, j) in jobs.iter().enumerate() {
            if j.release == t {
                live.push(Live {
                    idx,
                    remaining: j.budget,
                    started: false,
                });
            }
        }
        // Dispatch: a started non-preemptible job keeps the slot.
        let keep = current.is_some_and(|ci| {
            let job = &live[ci];
            job.started && !jobs[job.idx].preemptible && job.remaining > 0
        });
        if !keep && !live.is_empty() {
            // Highest priority, FIFO by (release, index) within a level.
            let best = (0..live.len())
                .min_by_key(|&i| {
                    let j = &jobs[live[i].idx];
                    (j.priority, j.release, live[i].idx)
                })
                .expect("non-empty");
            current = Some(best);
        } else if live.is_empty() {
            current = None;
        }
        // One tick of work.
        if let Some(ci) = current {
            live[ci].started = true;
            live[ci].remaining -= 1;
        }
        t += 1;
        if t > 10_000 {
            unreachable!("oracle runaway");
        }
    }
    completion
}

/// Drive the real `Processor` with a miniature engine (releases at known
/// times, completion events from reschedule, end-of-instant dispatch).
fn event_driven(jobs: &[JobSpec]) -> Vec<i64> {
    let mut completion = vec![0i64; jobs.len()];
    let mut p = Processor::new(ProcessorId::new(0));
    // (time, kind): the processor's one pending milestone, or a release
    // (job index).
    #[derive(Clone, Copy)]
    enum Ev {
        Completion,
        Release(usize),
    }
    let mut queue: Vec<(i64, usize, Ev)> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.release, i, Ev::Release(i)))
        .collect();
    let mut seq = jobs.len();
    let mut done = 0;
    while done < jobs.len() {
        // Pop the earliest event; completions before releases at a tie.
        queue.sort_by_key(|&(t, s, ref ev)| (t, matches!(ev, Ev::Release(_)) as u8, s));
        let (now, _, ev) = queue.remove(0);
        let now_t = Time::from_ticks(now);
        match ev {
            Ev::Release(i) => {
                let j = jobs[i];
                if let Some(slice) = p.advance(now_t) {
                    let _ = slice;
                }
                p.release(
                    JobId::new(SubtaskId::new(TaskId::new(i), 0), 0),
                    PriorityProfile::flat(Priority::new(j.priority)),
                    Dur::from_ticks(j.budget),
                    j.preemptible,
                );
            }
            Ev::Completion => {
                let _ = p.advance(now_t);
                match p.take_milestone() {
                    Milestone::Completed(job) => {
                        completion[job.task().index()] = now;
                        done += 1;
                    }
                    Milestone::Boundary(_) => {
                        unreachable!("flat profiles have no boundaries")
                    }
                }
            }
        }
        // End-of-instant dispatch: only when no same-time event remains.
        let more_now = queue.iter().any(|&(t, _, _)| t == now);
        if !more_now {
            if let Resched::NewMilestone { at } = p.reschedule(now_t) {
                // A new milestone replaces the pending one.
                queue.retain(|&(_, _, ev)| matches!(ev, Ev::Release(_)));
                queue.push((at.ticks(), seq, Ev::Completion));
                seq += 1;
            }
        }
    }
    completion
}

fn arb_jobs() -> impl Strategy<Value = Vec<JobSpec>> {
    prop::collection::vec((0i64..40, 0u32..4, 1i64..6, prop::bool::ANY), 1..10)
        .prop_map(|raw| {
            raw.into_iter()
                .map(|(release, priority, budget, preemptible)| JobSpec {
                    release,
                    priority,
                    budget,
                    preemptible,
                })
                .collect::<Vec<_>>()
        })
        .prop_filter(
            "unique (priority, release) pairs keep FIFO deterministic",
            |jobs| {
                // Two jobs with the same priority and the same release time would
                // tie-break by engine insertion order vs oracle index — make them
                // unambiguous by requiring distinct (priority, release) pairs.
                let mut seen = std::collections::HashSet::new();
                jobs.iter().all(|j| seen.insert((j.priority, j.release)))
            },
        )
}

/// Keyed slots in the queue differential test: few enough that arms
/// often replace a pending entry.
const SLOTS: usize = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The event-driven processor completes every job at exactly the
    /// instant the tick-by-tick reference scheduler does — including
    /// non-preemptible jobs and same-instant arbitration.
    #[test]
    fn processor_matches_tick_oracle(jobs in arb_jobs()) {
        let expect = oracle(&jobs);
        let got = event_driven(&jobs);
        prop_assert_eq!(got, expect, "jobs: {:?}", jobs);
    }

    /// The event queue pops in (time, kind-rank, insertion) order whatever
    /// the insertion order was.
    #[test]
    fn event_queue_total_order(entries in prop::collection::vec((0i64..50, 0u8..2), 1..50)) {
        let mut q = EventQueue::new();
        for (i, &(t, k)) in entries.iter().enumerate() {
            let kind = if k == 0 {
                EventKind::Completion { proc: ProcessorId::new(i % 3) }
            } else {
                EventKind::SourceRelease { task: TaskId::new(i), instance: 0 }
            };
            q.push(Time::from_ticks(t), kind);
        }
        let mut prev: Option<(i64, u8)> = None;
        while let Some(ev) = q.pop() {
            let rank = match ev.kind {
                EventKind::Completion { .. } => 0u8,
                _ => 3,
            };
            if let Some((pt, pr)) = prev {
                prop_assert!(
                    (pt, pr) <= (ev.time.ticks(), rank),
                    "queue went backwards: ({pt}, {pr}) then ({}, {rank})",
                    ev.time.ticks()
                );
            }
            prev = Some((ev.time.ticks(), rank));
        }
    }

    /// Differential oracle: the packed-key heap with keyed slots pops the
    /// exact same `(time, kind, seq)` sequence as [`ReferenceEventQueue`]
    /// — the tuple-comparator heap, which models a slot as a push plus a
    /// skip of superseded entries — under random push/arm/disarm/pop
    /// interleavings, and both report the same number of live events
    /// after every op. The time mapping stacks four regimes: dense
    /// same-instant ties (kind-rank and insertion-order arbitration,
    /// including the adjacent AckDeliver/RetransmitTimer ranks and ties
    /// between slot and heap entries), negative ticks, ticks near
    /// `i64::MIN` and `i64::MAX` (a wrong sign-bit flip in the key would
    /// reorder them), and scattered times. The kinds cover every rank
    /// band — liveness prologue, protocol, transport/detector, sync — so
    /// the packed rank field is exercised from 0 to 26.
    #[test]
    fn event_queue_matches_the_reference_heap(
        ops in prop::collection::vec(
            (0u8..6, 0i64..200_000, 0u8..9, 0usize..SLOTS), 1..200),
    ) {
        let kind_of = |sel: u8, i: usize| match sel {
            0 => EventKind::Crash { proc: ProcessorId::new(0) },
            1 => EventKind::LinkDegradeEnd { idx: 0 },
            2 => EventKind::Completion { proc: ProcessorId::new(i % 3) },
            3 => EventKind::SourceRelease { task: TaskId::new(i), instance: 0 },
            // Fixed seqs so same-instant ack/retransmit pairs differ only
            // by kind rank and insertion order.
            4 => EventKind::AckDeliver { seq: 7 },
            5 => EventKind::RetransmitTimer { seq: 7 },
            6 => EventKind::SyncRound { proc: ProcessorId::new(1) },
            7 => EventKind::SuspectTimer {
                observer: ProcessorId::new(0),
                subject: ProcessorId::new(i % 2 + 1),
            },
            _ => EventKind::SyncRetry {
                from: ProcessorId::new(0),
                to: ProcessorId::new(1),
                t1: Time::ZERO,
                respond: false,
                attempt: 1,
            },
        };
        let time_of = |raw_t: i64| Time::from_ticks(match raw_t % 10 {
            0..=4 => raw_t % 16,           // dense ties
            5 | 6 => -(raw_t % 40),        // negative, ties at 0
            7 => i64::MIN + raw_t % 8,     // bottom of the range
            8 => i64::MAX - raw_t % 8,     // top of the range
            _ => raw_t,                    // scattered
        });
        let mut queue = EventQueue::with_slots(SLOTS);
        let mut reference = ReferenceEventQueue::with_slots(SLOTS);
        for (i, &(op, raw_t, sel, slot)) in ops.iter().enumerate() {
            match op {
                0 | 1 => {
                    let got = queue.pop().map(|e| (e.time, e.kind, e.seq()));
                    let want = reference.pop().map(|e| (e.time, e.kind, e.seq()));
                    prop_assert_eq!(got, want, "diverged at op {}", i);
                }
                2 | 3 => {
                    queue.push(time_of(raw_t), kind_of(sel, i));
                    reference.push(time_of(raw_t), kind_of(sel, i));
                }
                4 => {
                    queue.arm(slot, time_of(raw_t), kind_of(sel, i));
                    reference.arm(slot, time_of(raw_t), kind_of(sel, i));
                }
                _ => {
                    queue.disarm(slot);
                    reference.disarm(slot);
                }
            }
            prop_assert_eq!(queue.len(), reference.len(), "live count at op {}", i);
            prop_assert_eq!(queue.peek_time(), reference.peek_time(), "peek at op {}", i);
        }
        loop {
            let got = queue.pop().map(|e| (e.time, e.kind, e.seq()));
            let want = reference.pop().map(|e| (e.time, e.kind, e.seq()));
            prop_assert_eq!(got, want, "diverged during the final drain");
            if got.is_none() {
                break;
            }
        }
        prop_assert!(queue.is_empty() && reference.is_empty());
    }
}
