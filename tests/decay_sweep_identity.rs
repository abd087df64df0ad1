//! Identity tests for the multi-tick decay sweep.
//!
//! `Kernel::read_physical_snapshots` reads every snapshot between two
//! deferred-scrub deadlines in one `Dram::read_ticks` sweep, which draws each
//! residue cell once and compares it with one threshold per tick, and
//! `Dram::residue_decay` reads each residue frame through the same kernel.
//! The `reference` module keeps what they replaced, spelled out byte by
//! byte from the public decay pieces: one read per snapshot with
//! `Kernel::tick(1)` between reads, and a residue count that reads each
//! frame raw and decayed and zips the two.  Snapshot bytes, the final
//! clock, the scrub reports and the residue counts must match over the
//! remanence models, snapshot counts 1..=5, read ranges (a heap, a range
//! straddling live, residue and never-written frames, a range clamped at
//! the window end, a stripe-larger-than-page geometry) and background-scrub
//! deadlines around the snapshot window.  `Dram::residue_decay_from_read`,
//! which takes the counts from the last snapshot instead of a second sweep,
//! must match the same reference, including on reads that miss some of the
//! victim's frames.

#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use std::collections::HashMap;

use fpga_msa::dram::config::DdrGeometry;
use fpga_msa::dram::{
    Dram, DramConfig, OwnerTag, PhysAddr, RemanenceModel, ResidueDecay, SanitizePolicy, PAGE_SIZE,
};
use fpga_msa::petalinux::{BoardConfig, Kernel, Pid, UserId};

const SEED: u64 = 0x5EED_DECA;
const MAX_SNAPSHOTS: usize = 5;
/// Background-scrub delay: long enough to place the deadline anywhere from
/// the first snapshot to one tick past the last.
const DELAY: u64 = 8;

const MODELS: [RemanenceModel; 7] = [
    RemanenceModel::Exponential { half_life_ticks: 0 },
    RemanenceModel::Exponential { half_life_ticks: 1 },
    RemanenceModel::Exponential { half_life_ticks: 4 },
    RemanenceModel::Exponential {
        half_life_ticks: 1000,
    },
    RemanenceModel::BitFlip { rate_ppm: 1 },
    RemanenceModel::BitFlip { rate_ppm: 120_000 },
    RemanenceModel::BitFlip { rate_ppm: 900_000 },
];

mod reference {
    use std::collections::HashMap;

    use fpga_msa::dram::remanence::cell_hash;
    use fpga_msa::dram::{Dram, OwnerTag, PhysAddr, RemanenceModel, ResidueDecay, PAGE_SIZE};

    /// The store with no decay applied.
    fn raw_store(dram: &Dram) -> Dram {
        let mut store = dram.clone();
        store.set_remanence(RemanenceModel::Perfect);
        store
    }

    fn raw(store: &Dram, addr: PhysAddr, len: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; len];
        store.read_bytes(addr, &mut bytes).unwrap();
        bytes
    }

    /// One decayed read, a byte at a time: a residue byte goes through the
    /// model's curve at the ticks elapsed since its owner retired, with the
    /// draw of its (stripe, offset) cell; every other byte reads raw.
    pub fn read(
        dram: &Dram,
        origins: &HashMap<OwnerTag, u64>,
        addr: PhysAddr,
        len: usize,
    ) -> Vec<u8> {
        decay(dram, origins, addr, raw(&raw_store(dram), addr, len))
    }

    fn decay(
        dram: &Dram,
        origins: &HashMap<OwnerTag, u64>,
        addr: PhysAddr,
        mut bytes: Vec<u8>,
    ) -> Vec<u8> {
        let base = dram.config().base();
        let sb = dram.stripe_bytes();
        let now = dram.remanence_tick();
        let mut frame = (u64::MAX, None);
        for (at, byte) in (addr.as_u64()..).zip(&mut bytes) {
            // A zero byte decays to zero: skipping it only saves time.
            if *byte == 0 {
                continue;
            }
            let at = PhysAddr::new(at);
            let number = at.frame_number();
            if frame.0 != number.as_u64() {
                frame = (number.as_u64(), dram.frame_ownership(number));
            }
            let Some(record) = frame.1.filter(|record| !record.live) else {
                continue;
            };
            let curve = dram.remanence().curve(now - origins[&record.owner]);
            let rel = at.offset_from(base);
            *byte = curve.apply(*byte, cell_hash(SEED, rel / sb, rel % sb));
        }
        bytes
    }

    /// The residue count as a copy-and-zip pass: each residue frame read
    /// raw and decayed, then compared byte for byte.
    pub fn residue_decay(
        dram: &Dram,
        origins: &HashMap<OwnerTag, u64>,
        owner: Option<OwnerTag>,
    ) -> ResidueDecay {
        let store = raw_store(dram);
        let mut counts = ResidueDecay::default();
        for (frame, tag) in dram.residue_frames() {
            if owner.is_some_and(|o| o != tag) {
                continue;
            }
            let addr = frame.base_address();
            let raw = raw(&store, addr, PAGE_SIZE as usize);
            let seen = decay(dram, origins, addr, raw.clone());
            for (r, s) in raw.iter().zip(&seen) {
                if *r != 0 {
                    counts.raw_bytes += 1;
                    if *s != 0 {
                        counts.surviving_bytes += 1;
                    }
                }
                counts.bits_flipped += u64::from((r ^ s).count_ones());
            }
        }
        counts
    }

    const SEED: u64 = super::SEED;
}

/// A page of residue-like bytes: three written runs (the page head, one
/// across a 1 KiB stripe boundary, the page tail) with some zeros inside.
fn page_pattern(salt: u64) -> Vec<u8> {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut page = vec![0u8; PAGE_SIZE as usize];
    for range in [0..300, 900..1300, 3900..4096] {
        for byte in &mut page[range] {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *byte = if state.is_multiple_of(8) {
                0
            } else {
                (state >> 24) as u8
            };
        }
    }
    page
}

fn spawn_with_heap(kernel: &mut Kernel, name: &str, pages: u64, salt: u64) -> Pid {
    let pid = kernel.spawn(UserId::new(0), &[name]).unwrap();
    kernel.grow_heap(pid, pages * PAGE_SIZE).unwrap();
    let heap = kernel.process(pid).unwrap().heap_base();
    for page in 0..pages {
        let bytes = page_pattern(salt * 16 + page);
        kernel
            .write_process_memory(pid, heap + page * PAGE_SIZE, &bytes)
            .unwrap();
    }
    pid
}

fn heap_range(kernel: &Kernel, pid: Pid) -> (PhysAddr, PhysAddr) {
    let process = kernel.process(pid).unwrap();
    let space = process.address_space();
    let start = space.translate(process.heap_base()).unwrap();
    let last = space.translate(process.heap_end() - PAGE_SIZE).unwrap();
    assert_eq!(
        last.offset_from(start),
        process.heap_end().offset_from(process.heap_base()) - PAGE_SIZE,
        "the heap is physically contiguous"
    );
    (start, last + PAGE_SIZE)
}

/// A board with a live neighbour, an earlier dead process and a dead victim,
/// its clock brought to the first snapshot's tick.  With `scrub_at = Some(d)`
/// the victim's background scrub is due `d` ticks after that first tick, and
/// the clock arrives there through a write, so nothing due then has run.
struct Board {
    kernel: Kernel,
    origins: HashMap<OwnerTag, u64>,
    victim: OwnerTag,
    ranges: [(PhysAddr, usize); 3],
}

fn board(model: RemanenceModel, scrub_at: Option<u64>) -> Board {
    let policy = match scrub_at {
        Some(_) => SanitizePolicy::Background { delay_ticks: DELAY },
        None => SanitizePolicy::None,
    };
    let mut kernel = Kernel::boot(
        BoardConfig::tiny_for_tests()
            .with_remanence(model)
            .with_sanitize_policy(policy),
    );
    kernel.set_remanence_seed(SEED);
    let neighbour = spawn_with_heap(&mut kernel, "neighbour", 1, 1);
    let ghost = spawn_with_heap(&mut kernel, "ghost", 1, 2);
    let victim = spawn_with_heap(&mut kernel, "victim", 2, 3);
    let (first, _) = heap_range(&kernel, neighbour);
    let heap = heap_range(&kernel, victim);

    let mut origins = HashMap::new();
    origins.insert(ghost.owner_tag(), kernel.clock());
    kernel.terminate(ghost).unwrap();
    kernel.tick(3);
    origins.insert(victim.owner_tag(), kernel.clock());
    let victim_due = kernel.clock() + DELAY;
    kernel.terminate(victim).unwrap();

    let first_tick = match scrub_at {
        Some(d) => victim_due - d,
        None => kernel.clock() + 4,
    };
    while kernel.clock() + 1 < first_tick {
        kernel.tick(1);
    }
    let neighbour_heap = kernel.process(neighbour).unwrap().heap_base();
    kernel
        .write_process_memory(neighbour, neighbour_heap + 8, &[0x3C; 24])
        .unwrap();
    assert_eq!(kernel.clock(), first_tick);

    let straddle_start = first.min(heap.0) + 100;
    let straddle_end = heap.1 + 2 * PAGE_SIZE - 50;
    Board {
        kernel,
        origins,
        victim: victim.owner_tag(),
        ranges: [
            (heap.0, heap.1.offset_from(heap.0) as usize),
            (
                straddle_start,
                straddle_end.offset_from(straddle_start) as usize,
            ),
            // The victim's first frame and half of its second: the residue
            // tally from the last snapshot sweeps the second frame itself.
            (heap.0, (PAGE_SIZE + PAGE_SIZE / 2) as usize),
        ],
    }
}

/// What the reference loop leaves after each snapshot.
struct Step {
    snapshot: Vec<u8>,
    clock: u64,
    reports: usize,
    decay: [ResidueDecay; 2],
}

fn check_kernel(model: RemanenceModel, scrub_at: Option<u64>) {
    let Board {
        kernel,
        origins,
        victim,
        ranges,
    } = board(model, scrub_at);
    let decay_of = |dram: &Dram| {
        [
            reference::residue_decay(dram, &origins, None),
            reference::residue_decay(dram, &origins, Some(victim)),
        ]
    };
    for (addr, len) in ranges {
        let case = format!("{model} scrub {scrub_at:?} range {addr}+{len:#x}");
        let mut twin = kernel.clone();
        let mut steps = Vec::new();
        for k in 0..MAX_SNAPSHOTS {
            if k > 0 {
                twin.tick(1);
            }
            let snapshot = reference::read(twin.dram(), &origins, addr, len);
            let mut single = vec![0u8; len];
            twin.read_physical_bytes(addr, &mut single).unwrap();
            assert!(single == snapshot, "{case}: single read at snapshot {k}");
            steps.push(Step {
                snapshot,
                clock: twin.clock(),
                reports: twin.scrub_reports().len(),
                decay: decay_of(twin.dram()),
            });
        }
        for n in 1..=MAX_SNAPSHOTS {
            let mut swept = kernel.clone();
            let snapshots = swept.read_physical_snapshots(addr, len, n).unwrap();
            let want = &steps[n - 1];
            assert_eq!(snapshots.len(), n, "{case}");
            for (k, (got, step)) in snapshots.iter().zip(&steps).enumerate() {
                assert!(*got == step.snapshot, "{case}: snapshot {k} of {n}");
            }
            assert_eq!(swept.clock(), want.clock, "{case}: clock after {n}");
            assert_eq!(swept.scrub_reports().len(), want.reports, "{case}");
            let mut replay = kernel.clone();
            for _ in 1..n {
                replay.tick(1);
            }
            assert_eq!(swept.scrub_reports(), replay.scrub_reports(), "{case}");
            assert_eq!(swept.pending_scrubs(), replay.pending_scrubs(), "{case}");
            let counts = [
                swept.dram().residue_decay(None),
                swept.dram().residue_decay(Some(victim)),
            ];
            assert_eq!(counts, want.decay, "{case}: residue counts after {n}");
            // The last snapshot was read at the tick the sweep ends on.
            let last = &snapshots[n - 1];
            let from_read = [
                swept.dram().residue_decay_from_read(None, addr, last),
                swept
                    .dram()
                    .residue_decay_from_read(Some(victim), addr, last),
            ];
            assert_eq!(from_read, want.decay, "{case}: counts from snapshot {n}");
        }
    }
}

fn check_kernel_models(models: &[RemanenceModel]) {
    for &model in models {
        check_kernel(model, None);
        for scrub_at in 0..=MAX_SNAPSHOTS as u64 {
            check_kernel(model, Some(scrub_at));
        }
    }
}

#[test]
fn exponential_snapshots_match_one_read_per_tick() {
    check_kernel_models(&MODELS[..4]);
}

#[test]
fn bitflip_snapshots_match_one_read_per_tick() {
    check_kernel_models(&MODELS[4..]);
}

/// `Dram::read_ticks` against reads one `advance_remanence(1)` apart, and
/// `Dram::residue_decay` against the copy-and-zip count at each tick, on a
/// store holding `victim` residue retired at tick 0 and a live neighbour.
fn check_dram(config: DramConfig, victim_bytes: (PhysAddr, usize), live_page: PhysAddr) {
    for model in MODELS {
        let mut dram = Dram::new(config);
        dram.set_remanence(model);
        dram.set_remanence_seed(SEED);
        let victim = OwnerTag::new(7);
        let (start, len) = victim_bytes;
        let bytes: Vec<u8> = (0..len.div_ceil(PAGE_SIZE as usize) as u64)
            .flat_map(page_pattern)
            .take(len)
            .collect();
        dram.write_bytes(start, &bytes, victim).unwrap();
        dram.write_bytes(live_page, &page_pattern(99), OwnerTag::new(8))
            .unwrap();
        dram.retire_owner(victim);
        dram.advance_remanence(1);
        let origins = HashMap::from([(victim, 0u64)]);

        let end = config.end();
        let from = live_page
            .min(start)
            .as_u64()
            .saturating_sub(PAGE_SIZE + 123);
        let from = PhysAddr::new(from.max(config.base().as_u64()));
        let to = (start + len as u64 + PAGE_SIZE).min(end);
        let (addr, len) = (from, to.offset_from(from) as usize);
        let case = format!("{model} on {config:?} range {addr}+{len:#x}");

        let mut twin = dram.clone();
        let mut expected = Vec::new();
        for k in 0..MAX_SNAPSHOTS {
            if k > 0 {
                twin.advance_remanence(1);
            }
            expected.push(reference::read(&twin, &origins, addr, len));
            assert_eq!(
                twin.residue_decay(Some(victim)),
                reference::residue_decay(&twin, &origins, Some(victim)),
                "{case}: residue counts at tick {k}"
            );
        }
        for n in 1..=MAX_SNAPSHOTS {
            let reads = dram.read_ticks(addr, len, n).unwrap();
            assert!(reads[..] == expected[..n], "{case}: {n} ticks");
            // Counts from the last read, whole and with its first half cut
            // off: the cut falls inside the victim's residue in both
            // geometries, so its first frames are swept, not read.
            let mut last_tick = dram.clone();
            last_tick.advance_remanence(n as u64 - 1);
            let want = reference::residue_decay(&last_tick, &origins, Some(victim));
            let last = &reads[n - 1];
            for cut in [0, len / 2] {
                assert_eq!(
                    last_tick.residue_decay_from_read(
                        Some(victim),
                        addr + cut as u64,
                        &last[cut..]
                    ),
                    want,
                    "{case}: counts from the read at tick {} cut at {cut}",
                    n - 1
                );
            }
        }
    }
}

#[test]
fn reads_clamped_at_the_window_end_match_one_read_per_tick() {
    let config = DramConfig::tiny_for_tests();
    let end = config.end();
    let victim = end - 3 * PAGE_SIZE + 200;
    check_dram(
        config,
        (victim, (3 * PAGE_SIZE - 200) as usize),
        end - 4 * PAGE_SIZE,
    );
}

#[test]
fn stripes_larger_than_pages_match_one_read_per_tick() {
    let config = DramConfig::custom(
        PhysAddr::new(0x6_0000_0000),
        8 * 1024 * 1024,
        DdrGeometry {
            column_bits: 13, // 8 KiB rows: one stripe spans two frames
            bank_bits: 1,
            bank_group_bits: 1,
            row_bits: 8,
            rank_bits: 0,
        },
    );
    let base = config.base();
    // The victim's last frame shares its stripe with the live neighbour.
    check_dram(
        config,
        (base + 2 * PAGE_SIZE + 700, (3 * PAGE_SIZE - 700) as usize),
        base + 5 * PAGE_SIZE,
    );
}
