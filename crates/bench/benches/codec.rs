//! Codec microbenchmarks: frame construction and parsing throughput,
//! including the §5.4 precomputed-template argument ("the content of
//! the packet including all of headers can be pre-computed") measured
//! as template-patch vs full rebuild.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use wile::beacon::{build_wile_beacon, BeaconTemplate};
use wile::message::Message;
use wile_dot11::mac::SeqControl;
use wile_dot11::mgmt::{Beacon, BeaconBuilder};
use wile_dot11::MacAddr;

fn bench_codec(c: &mut Criterion) {
    let dev = MacAddr::from_device_id(7);

    let mut g = c.benchmark_group("beacon_build");
    g.bench_function("full_rebuild_8B", |b| {
        let msg = Message::new(7, 0, b"ABCDEFGH");
        b.iter(|| black_box(build_wile_beacon(dev, &msg, SeqControl::new(0, 0), 0).unwrap()))
    });
    g.bench_function("template_patch_8B", |b| {
        let mut tpl = BeaconTemplate::new(dev, 7, 8).unwrap();
        let mut seq = 0u16;
        b.iter(|| {
            seq = seq.wrapping_add(1);
            black_box(tpl.render(seq, SeqControl::new(seq & 0xFFF, 0), b"ABCDEFGH"))
        })
    });
    g.bench_function("full_rebuild_200B", |b| {
        let msg = Message::new(7, 0, &[0x42; 200]);
        b.iter(|| black_box(build_wile_beacon(dev, &msg, SeqControl::new(0, 0), 0).unwrap()))
    });
    g.finish();

    let frame = build_wile_beacon(
        dev,
        &Message::new(7, 3, b"t=21.5C"),
        SeqControl::new(0, 0),
        0,
    )
    .unwrap();
    let mut g = c.benchmark_group("beacon_parse");
    g.throughput(Throughput::Bytes(frame.len() as u64));
    g.bench_function("parse_and_extract", |b| {
        b.iter(|| {
            let beacon = Beacon::new_checked(black_box(&frame[..])).unwrap();
            let frags = wile::beacon::wile_fragments(&beacon);
            black_box(wile::encode::decode_fragments(frags).unwrap())
        })
    });
    g.bench_function("fcs_check", |b| {
        b.iter(|| black_box(wile_dot11::fcs::check_fcs(black_box(&frame))))
    });
    g.finish();

    // Non-Wi-LE paths that sit on the hot receive path of a gateway.
    let ap_beacon = BeaconBuilder::new(MacAddr::new([9; 6]))
        .ssid(b"HomeNet")
        .build();
    let mut g = c.benchmark_group("scan_path");
    g.bench_function("reject_foreign_beacon", |b| {
        b.iter(|| {
            let beacon = Beacon::new_checked(black_box(&ap_beacon[..])).unwrap();
            let foreign = wile::beacon::wile_fragments(&beacon).next().is_none();
            black_box(foreign)
        })
    });
    g.finish();

    // Crypto on the device's hot path (the §6 security extension).
    let id = wile::registry::DeviceIdentity::with_key(7, b"secret");
    let mut g = c.benchmark_group("security");
    g.throughput(Throughput::Bytes(64));
    g.bench_function("seal_64B", |b| {
        let mut seq = 0u16;
        b.iter(|| {
            seq = seq.wrapping_add(1);
            black_box(wile::security::encrypt_message(&id, 0, seq, &[0x42; 64]))
        })
    });
    g.bench_function("open_64B", |b| {
        let msg = wile::security::encrypt_message(&id, 0, 1, &[0x42; 64]);
        b.iter(|| black_box(wile::security::decrypt_message(&id, 0, black_box(&msg)).unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
