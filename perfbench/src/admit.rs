//! `admit_service`: a closed loop with one client in front of two
//! resident admission engines, one in `PmFamily` mode and one in
//! `DirectSync` mode. Requests alternate between the engines; each is
//! an admit of a chain from a pool of §5.1 chains offered far above
//! capacity, or a retire of a resident chain. The client sends the next
//! request only after the previous verdict, and which chain it names
//! depends on the residents that verdicts left behind.
//!
//! Every verdict and bound is checked afterwards against a replay of
//! the same stream through engines with memoization off (the batch
//! oracle); the replay is not timed.

use rtsync_core::analysis::admission::{
    AdmissionConfig, AdmissionMode, AdmissionState, ChainRequest, Decision, RejectReason,
};
use rtsync_core::time::Dur;
use rtsync_workload::{generate_seeded, WorkloadSpec};

use crate::figure::cell;
use crate::trace::{timed, Tally, Tracer};
use crate::util::{mix, Digest, SplitMix};
use crate::{Doctor, OpRecord, Workload};

/// §5.1 systems whose chains form the pool, 12 chains each: four per
/// cell of the paper's grid, walked as `figure_study` walks it. The pool
/// is large so that its make-up, and with it the cost of a decision,
/// varies little from seed to seed.
const POOL_SYSTEMS: usize = 140;
/// Share of requests that are admits (per mille); the rest retire, so
/// the resident count settles where admits and retires balance: about
/// three in four admits are accepted.
const ADMIT_PERMILLE: u64 = 555;
/// Requests per engine that fill it during set-up, with the same random
/// walk the timed stream uses. The first 2 000 or so are a ramp from an
/// empty engine whose cost varies with the seed; 6 000 dilute it.
const FILL_REQUESTS: usize = 6_000;
const MODES: [AdmissionMode; 2] = [AdmissionMode::PmFamily, AdmissionMode::DirectSync];

#[derive(Clone, Copy)]
enum Request {
    Admit(u64),
    Retire(u64),
}

#[derive(Clone, PartialEq, Debug)]
enum Verdict {
    Admit(Decision),
    Retire(bool),
}

/// One engine and the client's view of its residents.
struct Engine {
    state: AdmissionState,
    resident: Vec<u64>,
    idle: Vec<u64>,
}

impl Engine {
    fn new(mode: AdmissionMode, memo: bool, pool: usize) -> Engine {
        Engine {
            state: AdmissionState::new(4, AdmissionConfig::new(mode).with_memoization(memo)),
            resident: Vec::new(),
            idle: (0..pool as u64).collect(),
        }
    }

    /// The next request of the closed loop, from one op's two draws.
    fn next_request(&self, coin: u64, pick: u64) -> Request {
        if self.resident.is_empty() || coin % 1000 < ADMIT_PERMILLE {
            Request::Admit(self.idle[(pick % self.idle.len() as u64) as usize])
        } else {
            Request::Retire(self.resident[(pick % self.resident.len() as u64) as usize])
        }
    }

    fn apply(&mut self, req: Request, pool: &[ChainRequest]) -> Verdict {
        match req {
            Request::Admit(id) => Verdict::Admit(self.state.admit(pool[id as usize].clone())),
            Request::Retire(id) => Verdict::Retire(self.state.retire(id).is_ok()),
        }
    }

    /// Moves the chain between the client's lists after a verdict.
    fn settle(&mut self, req: Request, verdict: &Verdict) {
        let moved = match (req, verdict) {
            (Request::Admit(id), Verdict::Admit(d)) if d.admitted => Some((id, true)),
            (Request::Retire(id), Verdict::Retire(true)) => Some((id, false)),
            _ => None,
        };
        if let Some((id, admitted)) = moved {
            let (from, to) = if admitted {
                (&mut self.idle, &mut self.resident)
            } else {
                (&mut self.resident, &mut self.idle)
            };
            let at = from.iter().position(|&x| x == id).expect("chain is listed");
            from.swap_remove(at);
            to.push(id);
        }
    }
}

pub struct AdmitService {
    pool: Vec<ChainRequest>,
    draws: Vec<(u64, u64)>,
    engines: [Engine; 2],
    /// Every request and verdict, fill first, for the oracle replay.
    log: Vec<(usize, Request, Verdict)>,
    fill_len: usize,
    doctor: Doctor,
}

fn reject_code(reason: &Option<RejectReason>) -> u64 {
    match reason {
        None => 0,
        Some(RejectReason::DuplicateId) => 1,
        Some(RejectReason::Invalid(_)) => 2,
        Some(RejectReason::UtilizationGate { .. }) => 3,
        Some(RejectReason::Analysis(_)) => 4,
        Some(RejectReason::DeadlineMiss { .. }) => 5,
        Some(_) => 6,
    }
}

fn pool(seed: u64, tr: &mut impl Tracer) -> Vec<ChainRequest> {
    let mut pool = Vec::new();
    for k in 0..POOL_SYSTEMS {
        let (n, u) = cell(k);
        let spec = WorkloadSpec::paper(n, u);
        let (set, _) = timed(tr, "workload.generate", || {
            generate_seeded(&spec, mix(seed, 3, k as u64))
        });
        let set = set.expect("the paper's spec always generates");
        for task in set.tasks() {
            let subtasks = task
                .subtasks()
                .iter()
                .map(|s| (s.processor().index(), s.execution()))
                .collect();
            let id = pool.len() as u64;
            // Shortest period first: the deadline-monotonic order the
            // generator assigns priorities in.
            let rank = task.period().ticks().min(i64::from(u32::MAX)) as u32;
            pool.push(
                ChainRequest::new(id, task.period(), subtasks)
                    .with_deadline(task.deadline())
                    .with_rank(rank),
            );
        }
    }
    pool
}

impl AdmitService {
    fn step(&mut self, engine: usize, coin: u64, pick: u64) -> (Request, Verdict) {
        let e = &mut self.engines[engine];
        let req = e.next_request(coin, pick);
        let verdict = e.apply(req, &self.pool);
        e.settle(req, &verdict);
        (req, verdict)
    }
}

impl Workload for AdmitService {
    const NAME: &'static str = "admit_service";
    const NOMINAL_OPS_PER_S: f64 = 12_000.0;
    const TAIL_PCT: f64 = 99.0;
    const CANARY_OPS: usize = 2_000;

    fn setup<T: Tracer>(seed: u64, ops: usize, doctor: Doctor, tr: &mut T) -> AdmitService {
        let pool = pool(seed, tr);
        let mut rng = SplitMix::new(mix(seed, 4, 0));
        let draws = (0..ops).map(|_| (rng.next_u64(), rng.next_u64())).collect();
        let mut svc = AdmitService {
            engines: MODES.map(|m| Engine::new(m, true, pool.len())),
            pool,
            draws,
            log: Vec::with_capacity(2 * FILL_REQUESTS + ops),
            fill_len: 2 * FILL_REQUESTS,
            doctor,
        };
        tr.enter("admission.fill");
        let mut fill = SplitMix::new(mix(seed, 5, 0));
        for i in 0..2 * FILL_REQUESTS {
            let (coin, pick) = (fill.next_u64(), fill.next_u64());
            let (req, verdict) = svc.step(i % 2, coin, pick);
            svc.log.push((i % 2, req, verdict));
        }
        tr.exit();
        svc
    }

    fn op<T: Tracer>(&mut self, i: usize, tr: &mut T, tally: &mut Tally) -> OpRecord {
        let engine = i % 2;
        let (coin, pick) = self.draws[i];
        let e = &mut self.engines[engine];
        let req = e.next_request(coin, pick);
        let name = match (req, engine) {
            (Request::Retire(_), _) => "admission.retire",
            (Request::Admit(_), 0) => "admission.admit.pm",
            (Request::Admit(_), _) => "admission.admit.ds",
        };
        let (verdict, ns) = timed(tr, name, || e.apply(req, &self.pool));
        e.settle(req, &verdict);

        let mut d = Digest::new();
        d.add(engine as u64);
        let mut latency = None;
        match (&req, &verdict) {
            (Request::Admit(id), Verdict::Admit(dec)) => {
                let gate = matches!(dec.reject, Some(RejectReason::UtilizationGate { .. }));
                if !gate {
                    latency = Some(ns);
                }
                tally.count("admission.admits", 1);
                tally.count("admission.admitted", u64::from(dec.admitted));
                tally.count("admission.gate_rejects", u64::from(gate));
                tally.count("admission.reanalyzed", dec.reanalyzed as u64);
                tally.count("admission.skipped", dec.skipped as u64);
                d.add(0)
                    .add(*id)
                    .add(u64::from(dec.admitted))
                    .add_i64(dec.bound.map_or(-1, Dur::ticks))
                    .add(reject_code(&dec.reject));
            }
            (Request::Retire(id), Verdict::Retire(ok)) => {
                tally.count("admission.retires", 1);
                d.add(1).add(*id).add(u64::from(*ok));
            }
            _ => unreachable!("verdicts answer their own request kind"),
        }
        self.log.push((engine, req, verdict));
        let (pm_ns, ds_ns) = if engine == 0 {
            (latency, None)
        } else {
            (None, latency)
        };
        OpRecord {
            ok: true,
            digest: d.finish(),
            pm_ns,
            ds_ns,
        }
    }

    /// Replays the logged stream through engines with memoization off
    /// and marks every op whose verdict differs. A mismatch during the
    /// fill fails the first op.
    fn verify(&mut self, records: &mut [OpRecord]) {
        let mut oracle = MODES.map(|m| Engine::new(m, false, self.pool.len()));
        let mut first_admit = self.doctor == Doctor::Oracle;
        for (k, (engine, req, verdict)) in self.log.iter().enumerate() {
            let mut expected = oracle[*engine].apply(*req, &self.pool);
            if let Verdict::Admit(dec) = &mut expected {
                if first_admit && dec.admitted {
                    dec.bound = dec.bound.map(|b| b + Dur::from_ticks(1));
                    first_admit = false;
                }
            }
            let agree = match (&expected, verdict) {
                (Verdict::Admit(a), Verdict::Admit(b)) => {
                    a.admitted == b.admitted && a.bound == b.bound && a.reject == b.reject
                }
                (a, b) => a == b,
            };
            let op = k.saturating_sub(self.fill_len);
            if !agree && op < records.len() {
                records[op].ok = false;
            }
        }
    }
}
