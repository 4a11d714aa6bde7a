//! T-3.2.2 — ODoH vs. direct DNS: per-query crypto cost and simulated
//! end-to-end latency overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use dcp_crypto::hpke;
use decoupling::dns::{DnsName, Message, Rcode, RrType};
use decoupling::odns::odoh;
use decoupling::Scenario as _;
use rand::SeedableRng;

fn bench_encapsulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("odoh-crypto");
    let mut rng = rand::rngs::StdRng::seed_from_u64(30);
    let target = hpke::Keypair::generate(&mut rng);
    let query = Message::query(1, DnsName::parse("www.example.com").unwrap(), RrType::A);
    g.bench_function("seal-query", |b| {
        b.iter(|| odoh::seal_query(&mut rng, &target.public, &query).unwrap())
    });
    let (sealed, client_state) = odoh::seal_query(&mut rng, &target.public, &query).unwrap();
    g.bench_function("open-query", |b| {
        b.iter(|| odoh::open_query(&target, &sealed).unwrap())
    });
    let (_, target_state) = odoh::open_query(&target, &sealed).unwrap();
    let response = Message::response_to(&query, Rcode::NoError);
    g.bench_function("seal-response", |b| {
        b.iter(|| odoh::seal_response(&mut rng, &target_state, &response))
    });
    let sealed_response = odoh::seal_response(&mut rng, &target_state, &response);
    g.bench_function("open-response", |b| {
        b.iter(|| odoh::open_response(&client_state, &sealed_response).unwrap())
    });
    g.bench_function("plain-encode-decode", |b| {
        b.iter(|| Message::decode(&query.encode()).unwrap())
    });
    g.finish();
}

fn bench_simulated_resolution(c: &mut Criterion) {
    let mut g = c.benchmark_group("odoh-sim");
    g.sample_size(10);
    let mut seed = 0u64;
    g.bench_function("odoh-5-queries", |b| {
        b.iter(|| {
            seed += 1;
            decoupling::Odoh::run(&decoupling::OdohConfig::new(1, 5), seed)
        })
    });
    g.bench_function("direct-5-queries", |b| {
        b.iter(|| {
            seed += 1;
            decoupling::DirectDns::run(&decoupling::DirectDnsConfig::new(1, 5, 1), seed)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_encapsulation, bench_simulated_resolution);
criterion_main!(benches);
