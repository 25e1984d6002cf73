//! Criterion microbenchmarks of the PR 2 fast path: the predecoded
//! instruction cache in `Cpu::step` and the batched energy-integration
//! span in `Device::run_span` / `System::run_for`.
//!
//! These are the low-noise counterparts of the wall-clock numbers in
//! `manifest.json`: Criterion's in-process statistics are robust against
//! the scheduling jitter that plagues whole-binary timing on a loaded
//! box. The acceptance bar is decode-cache ≥2× over cold decode and a
//! visible win for the batched span over the per-step loop.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use edb_core::System;
use edb_device::{Device, DeviceConfig, Horizon};
use edb_energy::{Fading, SimTime, TheveninSource};
use edb_mcu::asm::assemble;
use edb_mcu::{Cpu, Memory, NullBus};

/// A decode-bound straight-line workload: two-word `movi`s (the widest
/// encoding — a cold fetch reads and decodes both words) interleaved
/// with one-word ALU ops, with no data-memory traffic, long enough to
/// exercise many distinct decode slots. Execution cost per instruction
/// is a register write or one ALU op, so the cached-vs-cold difference
/// isolates the decode cost — the quantity the decode-cache criterion
/// is about.
fn decode_bound_image() -> edb_mcu::Image {
    let body =
        "        add r0, 1\n        xor r2, r0\n        movi r1, 0x2222\n        and r3, 0x7F\n"
            .repeat(64);
    assemble(&format!(
        r#"
        .org 0x4400
        main:
{body}
            jmp main
        .org 0xFFFE
        .word main
        "#
    ))
    .expect("assembles")
}

/// A mixed workload with loads and stores — the shape of real target
/// firmware — used for the device/system-level numbers.
fn alu_image() -> edb_mcu::Image {
    let body =
        "        add r0, 1\n        ld r2, [r1+0]\n        st [r1+2], r2\n        cmpi r0, 0\n"
            .repeat(64);
    assemble(&format!(
        r#"
        .org 0x4400
        main:
            movi r1, 0x1C00
{body}
            jmp main
        .org 0xFFFE
        .word main
        "#
    ))
    .expect("assembles")
}

fn fresh_cpu_mem() -> (Cpu, Memory) {
    let mut mem = Memory::new();
    decode_bound_image().load_into(&mut mem);
    let mut cpu = Cpu::new();
    cpu.reset(&mem);
    (cpu, mem)
}

/// `Memory::fetch_decoded` with the cache warm vs disabled: the
/// component the decode cache replaces, measured in isolation. A hit
/// costs a masked index + tag compare; a cold fetch reads two words
/// from the memory map and decodes them. This is the ≥2× acceptance
/// number for the cache.
fn bench_fetch_decoded(c: &mut Criterion) {
    let mut group = c.benchmark_group("fetch");
    group.throughput(Throughput::Elements(10_000));

    // The addresses of every instruction in the workload, in execution
    // order, collected by decoding once.
    let pcs: Vec<u16> = {
        let mut mem = Memory::new();
        decode_bound_image().load_into(&mut mem);
        let mut pcs = Vec::new();
        let mut pc = 0x4400u16;
        loop {
            let (instr, size, _) = mem.fetch_decoded(pc).expect("decodes");
            pcs.push(pc);
            if matches!(instr, edb_mcu::Instr::J { .. }) {
                break;
            }
            pc = pc.wrapping_add(size as u16 * 2);
        }
        pcs
    };

    group.bench_function("fetch_10k_cache_hit", |b| {
        b.iter_batched(
            || {
                let mut mem = Memory::new();
                decode_bound_image().load_into(&mut mem);
                for &pc in &pcs {
                    let _ = mem.fetch_decoded(pc);
                }
                mem
            },
            |mut mem| {
                let mut acc = 0u32;
                for i in 0..10_000usize {
                    let pc = pcs[i % pcs.len()];
                    if let Ok((_, size, _)) = mem.fetch_decoded(pc) {
                        acc += size as u32;
                    }
                }
                acc
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("fetch_10k_cold_decode", |b| {
        b.iter_batched(
            || {
                let mut mem = Memory::new();
                decode_bound_image().load_into(&mut mem);
                mem.set_decode_cache_enabled(false);
                mem
            },
            |mut mem| {
                let mut acc = 0u32;
                for i in 0..10_000usize {
                    let pc = pcs[i % pcs.len()];
                    if let Ok((_, size, _)) = mem.fetch_decoded(pc) {
                        acc += size as u32;
                    }
                }
                acc
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

/// `Cpu::step` with the decode cache warm vs disabled (every fetch
/// decodes from raw bytes) — the end-to-end effect on the interpreter,
/// execute stage included.
fn bench_decode_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu");
    group.throughput(Throughput::Elements(10_000));

    group.bench_function("step_10k_decode_cached", |b| {
        b.iter_batched(
            || {
                let (mut cpu, mut mem) = fresh_cpu_mem();
                // Warm the cache: one full trip through the workload.
                for _ in 0..300 {
                    cpu.step(&mut mem, &mut NullBus);
                }
                (cpu, mem)
            },
            |(mut cpu, mut mem)| {
                for _ in 0..10_000 {
                    cpu.step(&mut mem, &mut NullBus);
                }
                cpu.pc
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("step_10k_decode_cold", |b| {
        b.iter_batched(
            || {
                let (cpu, mut mem) = fresh_cpu_mem();
                mem.set_decode_cache_enabled(false);
                (cpu, mem)
            },
            |(mut cpu, mut mem)| {
                for _ in 0..10_000 {
                    cpu.step(&mut mem, &mut NullBus);
                }
                cpu.pc
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

fn powered_device() -> Device {
    let mut dev = Device::new(DeviceConfig::wisp5());
    dev.flash(&alu_image());
    dev.set_v_cap(2.45);
    dev
}

/// The batched span vs the per-step loop over the same simulated
/// interval, on tethered power (no power edges: the span runs to its
/// deadline, which is where batching pays the most).
fn bench_batched_integration(c: &mut Criterion) {
    let mut group = c.benchmark_group("device");
    let window = SimTime::from_ms(2);
    group.throughput(Throughput::Elements(window.as_ns() / 125));

    group.bench_function("integrate_2ms_per_step", |b| {
        b.iter_batched(
            || (powered_device(), TheveninSource::new(3.0, 10.0)),
            |(mut dev, mut src)| {
                let end = dev.now() + window;
                while dev.now() < end {
                    dev.step(&mut src, 0.0);
                }
                dev.total_instructions()
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("integrate_2ms_batched_span", |b| {
        b.iter_batched(
            || (powered_device(), TheveninSource::new(3.0, 10.0)),
            |(mut dev, mut src)| {
                let end = dev.now() + window;
                let mut i_ext = |_v: f64| 0.0;
                while dev.now() < end {
                    let cap = match dev.next_silent_deadline() {
                        Some(t) if t < end => t,
                        _ => end,
                    };
                    if cap <= dev.now() {
                        dev.step(&mut src, 0.0);
                    } else {
                        dev.run_span(&mut src, &mut i_ext, &Horizon::until(cap));
                    }
                }
                dev.total_instructions()
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

/// The full system loop in the harvested fig9 configuration — the
/// experiment critical path. `run_for` takes the batched span path;
/// `step` is the pre-PR shape.
fn bench_system_fastpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("system");
    let window = SimTime::from_ms(5);
    group.throughput(Throughput::Elements(window.as_ns() / 125));

    let build = || {
        let mut sys = System::builder(DeviceConfig {
            i_active: 4.4e-3,
            ..DeviceConfig::wisp5()
        })
        .harvester(Fading::new(TheveninSource::new(3.2, 1500.0), 0.05, 9))
        .build();
        sys.flash(&alu_image());
        sys.device_mut().set_v_cap(2.45);
        sys
    };

    group.bench_function("harvested_5ms_per_step", |b| {
        b.iter_batched(
            build,
            |mut sys| {
                let end = sys.now() + window;
                while sys.now() < end {
                    sys.step();
                }
                sys.device().total_instructions()
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("harvested_5ms_run_for", |b| {
        b.iter_batched(
            build,
            |mut sys| {
                sys.run_for(window);
                sys.device().total_instructions()
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_fetch_decoded,
    bench_decode_cache,
    bench_batched_integration,
    bench_system_fastpath
);
criterion_main!(benches);
