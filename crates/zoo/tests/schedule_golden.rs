//! Byte-identity pin for the session scheduler: each SOC's total cycles
//! plus a digest of every session's ordered `(task_index, pins, cycles)`
//! list, over the `zoo_flow` benchmark's ladder SOCs, tiny SOCs and
//! adversarial SOCs. The values were recorded from the scheduler that
//! recomputed every wrapper time and every block on each search step,
//! so a faster scheduler must reproduce them exactly; a change that
//! moves a schedule on purpose re-records them and says which moved.

use steac_sched::{schedule_sessions, SessionSchedule};
use steac_zoo::{SyntheticSoc, ZooParams};

/// Core counts of the `zoo_flow` benchmark's ladder, SOC `i` taking
/// rung `i % 7`.
const LADDER: [usize; 7] = [4, 10, 12, 14, 16, 20, 24];

/// `(total_cycles, digest)` of ladder SOCs 0..14 at seed 1.
const LADDER_GOLDEN: [(u64, u64); 14] = [
    (364092, 0x59ef1fda0747c58c),
    (865153, 0xb31048e58e2ba6fa),
    (1318459, 0xcc2425f52d9f5ce0),
    (1326789, 0x0b6cd6f4933d23eb),
    (2319407, 0x3089839dff9284a9),
    (3371906, 0xfada8379f94b4ec0),
    (4382408, 0x389e8291a43a2b87),
    (486855, 0xf697020c43b7b026),
    (2398782, 0x1f9282a45af4d5e5),
    (1029752, 0xfe413962baeb0ebf),
    (6978584, 0x4d2d5c132b4c2312),
    (4136555, 0xf9710311857e8da4),
    (2571355, 0x694a26aea5d93dea),
    (2233579, 0x659835decc2ec140),
];

/// `(total_cycles, digest)` of tiny SOCs 0..20.
const TINY_GOLDEN: [(u64, u64); 20] = [
    (614845, 0x6f23ccd3629f5136),
    (824943, 0x7960740e4cf1dcfe),
    (1728957, 0x423950b937494534),
    (541750, 0xa13c00db309a50fe),
    (905322, 0xdeba63f559f21e3c),
    (3851784, 0xd70709a7bb1cc4e6),
    (919059, 0xd72f2adbb34e7bca),
    (113417, 0x0ee61f943ea3d7d0),
    (5826298, 0x524fe1582868a9bd),
    (55818, 0xdeccfa07d3252463),
    (605368, 0x5cd10108bf8581c6),
    (2765332, 0x64ce39e68c7d1dd6),
    (465558, 0x474913e55ed465f8),
    (472937, 0xf2c93010ef5656c4),
    (295619, 0xd2476a31e0ec50c6),
    (1801944, 0x34c91d933a988881),
    (767382, 0x7324a8db72658d0a),
    (69861, 0x897fafb262f76bdb),
    (7518835, 0xd885a6202565d657),
    (105299, 0xf2dd093c45e8184d),
];

/// `(total_cycles, digest)` of adversarial SOCs 0..10.
const ADVERSARIAL_GOLDEN: [(u64, u64); 10] = [
    (3132596, 0x23709a059428eaa9),
    (2865891, 0x0964a14dbf3817d9),
    (1097159, 0x272cdc85763f1bf4),
    (2004141, 0x2efd33bbc358039f),
    (7901407, 0x38459cddc9c7aa88),
    (1004265, 0x85cbb86a84dd3bd3),
    (4062722, 0x10b04a49eb804d6f),
    (2798081, 0x1ccd6bc3d76edbc1),
    (714023, 0xb1dc0864951566a3),
    (5764419, 0x708bed1c715bcdf9),
];

fn fnv1a(mut hash: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// 64-bit FNV-1a over each session's member count and its members'
/// `(task_index, pins, cycles)`, in schedule order.
fn digest(schedule: &SessionSchedule) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for session in &schedule.sessions {
        hash = fnv1a(hash, session.tasks.len() as u64);
        for t in &session.tasks {
            hash = fnv1a(hash, t.task_index as u64);
            hash = fnv1a(hash, t.pins as u64);
            hash = fnv1a(hash, t.cycles);
        }
    }
    hash
}

fn assert_golden(corpus: &str, socs: impl Iterator<Item = SyntheticSoc>, golden: &[(u64, u64)]) {
    let actual: Vec<(u64, u64)> = socs
        .map(|soc| {
            let s = schedule_sessions(&soc.tasks, &soc.config)
                .unwrap_or_else(|e| panic!("{corpus} {}: {e}", soc.name));
            (s.total_cycles, digest(&s))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(total, hash)| format!("    ({total}, {hash:#018x}),\n"))
        .collect();
    assert_eq!(actual, golden, "{corpus} schedules moved; now:\n{table}");
}

#[test]
fn schedules_match_the_recorded_totals_and_digests() {
    let ladder = (0..LADDER_GOLDEN.len()).map(|index| {
        let cores = LADDER[index % LADDER.len()];
        ZooParams {
            seed: 1,
            min_cores: cores,
            max_cores: cores,
            ..ZooParams::smoke()
        }
        .soc(index)
    });
    assert_golden("ladder", ladder, &LADDER_GOLDEN);
    let tiny = ZooParams::tiny();
    assert_golden(
        "tiny",
        (0..TINY_GOLDEN.len()).map(|i| tiny.soc(i)),
        &TINY_GOLDEN,
    );
    let adversarial = ZooParams::adversarial();
    assert_golden(
        "adversarial",
        (0..ADVERSARIAL_GOLDEN.len()).map(|i| adversarial.soc(i)),
        &ADVERSARIAL_GOLDEN,
    );
}
