//! Criterion microbenchmarks of the simulation substrates: how fast the
//! bench itself runs. These are throughput numbers for the *simulator*
//! (steps/second, assembly speed, protocol codec cost), not reproduction
//! results — those live in the experiment binaries.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use edb_core::System;
use edb_device::{Device, DeviceConfig};
use edb_energy::{Capacitor, TheveninSource};
use edb_mcu::asm::assemble;
use edb_rfid::crc::{crc16, crc5};
use edb_rfid::{Command, TagReply};

fn spin_image() -> edb_mcu::Image {
    assemble(
        r#"
        .org 0x4400
        main:
            add r0, 1
            jmp main
        .org 0xFFFE
        .word main
        "#,
    )
    .expect("assembles")
}

fn bench_device_stepping(c: &mut Criterion) {
    let mut group = c.benchmark_group("device");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("step_10k_instructions", |b| {
        b.iter_batched(
            || {
                let mut dev = Device::new(DeviceConfig::wisp5());
                dev.flash(&spin_image());
                dev.set_v_cap(2.45);
                (dev, TheveninSource::new(3.0, 10.0))
            },
            |(mut dev, mut src)| {
                for _ in 0..10_000 {
                    dev.step(&mut src, 0.0);
                }
                dev.total_instructions()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_system_with_edb(c: &mut Criterion) {
    let mut group = c.benchmark_group("system");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("step_10k_with_edb_attached", |b| {
        b.iter_batched(
            || {
                let mut sys = System::builder(DeviceConfig::wisp5())
                    .harvester(TheveninSource::new(3.2, 1500.0))
                    .build();
                sys.flash(&spin_image());
                sys.device_mut().set_v_cap(2.45);
                sys
            },
            |mut sys| {
                for _ in 0..10_000 {
                    sys.step();
                }
                sys.now()
            },
            BatchSize::SmallInput,
        )
    });
    // Same workload with a full-category recorder attached: the CI
    // bench gate holds this within 5% of the bare variant, pinning the
    // "observation is energy-interference-free *and* cheap" claim.
    group.bench_function("step_10k_with_recorder", |b| {
        b.iter_batched(
            || {
                let mut sys = System::builder(DeviceConfig::wisp5())
                    .harvester(TheveninSource::new(3.2, 1500.0))
                    .with_recorder(edb_obs::RecorderConfig::default())
                    .build();
                sys.flash(&spin_image());
                sys.device_mut().set_v_cap(2.45);
                sys
            },
            |mut sys| {
                for _ in 0..10_000 {
                    sys.step();
                }
                sys.now()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_assembler(c: &mut Criterion) {
    // `source` is already a complete libEDB-wrapped program.
    let source = edb_apps::linked_list::source(edb_apps::linked_list::Variant::Assert);
    c.bench_function("assemble_linked_list_app", |b| {
        b.iter(|| assemble(std::hint::black_box(&source)).map(|i| i.size_bytes()))
    });
}

fn bench_crcs(c: &mut Criterion) {
    let data: Vec<u8> = (0..1024u32).map(|x| x as u8).collect();
    let mut group = c.benchmark_group("crc");
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("crc16_1kib", |b| {
        b.iter(|| crc16(std::hint::black_box(&data)))
    });
    group.bench_function("crc5_1kib", |b| {
        b.iter(|| crc5(std::hint::black_box(&data)))
    });
    group.finish();
}

fn bench_rfid_codec(c: &mut Criterion) {
    c.bench_function("rfid_encode_decode_round", |b| {
        b.iter(|| {
            let q = Command::Query { q: 0, session: 1 }.encode();
            let r = TagReply::Epc { epc: [0xAB; 12] }.encode();
            (
                Command::decode(std::hint::black_box(&q)),
                TagReply::decode(std::hint::black_box(&r)),
            )
        })
    });
}

fn bench_capacitor_integration(c: &mut Criterion) {
    let mut group = c.benchmark_group("energy");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("capacitor_100k_steps", |b| {
        b.iter(|| {
            let mut cap = Capacitor::new(47e-6);
            cap.set_voltage(2.0);
            for k in 0..100_000u32 {
                let i = if k % 2 == 0 { 1e-3 } else { -1e-3 };
                cap.apply_current(i, 250e-9);
            }
            cap.voltage()
        })
    });
    group.finish();
}

fn bench_charge_convergence(c: &mut Criterion) {
    c.bench_function("edb_charge_1v8_to_2v4", |b| {
        b.iter_batched(
            || {
                let mut sys = System::builder(DeviceConfig::wisp5())
                    .harvester(TheveninSource::new(3.2, 1500.0))
                    .build();
                sys.flash(&spin_image());
                sys.device_mut().set_v_cap(1.8);
                sys
            },
            |mut sys| sys.charge_to(2.4).expect("charges"),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_device_stepping,
    bench_system_with_edb,
    bench_assembler,
    bench_crcs,
    bench_rfid_codec,
    bench_capacitor_integration,
    bench_charge_convergence,
);
criterion_main!(benches);
