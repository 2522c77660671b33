//! Every campaign that writes records through the column table is a pure
//! function of its config: its smoke configuration writes byte-identical
//! records at one worker thread and at four.

use rtsync_experiments::{admit, adversary, chaos, gray, sync, transport};

/// A campaign's records at its smoke configuration on `threads` workers.
type Smoke = fn(usize) -> Vec<String>;

const CAMPAIGNS: [(&str, Smoke); 6] = [
    ("chaos", |threads| {
        let cfg = chaos::ChaosConfig::smoke(25);
        chaos::records(&chaos::run_chaos(&chaos::ChaosConfig { threads, ..cfg }))
    }),
    ("adversary", |threads| {
        let cfg = adversary::AdversaryConfig::smoke(24);
        adversary::records(&adversary::run_adversary(&adversary::AdversaryConfig {
            threads,
            ..cfg
        }))
    }),
    ("gray", |threads| {
        let cfg = gray::GrayStudyConfig::smoke(16);
        gray::records(&gray::run_gray(&gray::GrayStudyConfig { threads, ..cfg }))
    }),
    ("transport", |threads| {
        let cfg = transport::TransportStudyConfig::smoke();
        let outcome =
            transport::run_transport_study(&transport::TransportStudyConfig { threads, ..cfg });
        transport::records(&outcome)
    }),
    ("sync", |threads| {
        let cfg = sync::SyncStudyConfig::smoke();
        sync::records(&sync::run_sync_study(&sync::SyncStudyConfig {
            threads,
            ..cfg
        }))
    }),
    ("admit", |threads| {
        let cfg = admit::AdmitStudyConfig::smoke();
        admit::records(&admit::run_admit_study(&admit::AdmitStudyConfig {
            threads,
            ..cfg
        }))
    }),
];

#[test]
fn campaigns_write_the_same_records_at_every_thread_count() {
    for (name, smoke) in CAMPAIGNS {
        let one = smoke(1);
        assert!(
            one.iter().all(|csv| csv.lines().count() > 1),
            "{name}: {one:?}"
        );
        assert_eq!(one, smoke(4), "{name}");
    }
}
