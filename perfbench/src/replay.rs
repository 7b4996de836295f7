//! Per-layer timings: after the measured window, each layer's public
//! functions are called on inputs captured from it — the run's image,
//! an agent's real credentials, and the payload of every hop at its real
//! size — and timed one call (or one batch of cheap calls) per span.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ajanta_baselines::RecordStore;
use ajanta_core::proxy::MeterMode;
use ajanta_core::telemetry::{Event, Journal, SpanContext, SpanId, TraceId};
use ajanta_core::{AccessProtocol, Credentials, DomainId, Guarded, ProxyPolicy, Requester, Rights};
use ajanta_crypto::cert::Certificate;
use ajanta_crypto::{DetRng, KeyPair, RootOfTrust};
use ajanta_naming::Urn;
use ajanta_net::frame::encode_channel_frame_into;
use ajanta_net::secure::ChannelIdentity;
use ajanta_net::{
    NetAddr, ReplayGuard, SealedDatagram, SecureChannel, SocketConfig, SocketTransport, Transport,
};
use ajanta_runtime::messages::Ack;
use ajanta_runtime::{
    AdmissionWal, AgentBundle, Itinerary, Message, Report, ReportStatus, WalRecord,
};
use ajanta_vm::{AgentImage, Namespace, Value};
use ajanta_wire::Wire;
use ajanta_workloads::records::selector_for;

use crate::spans::Recorder;
use crate::stats;
use crate::workload::{store_urn, Inputs, Workload, ACCESS_KEYS};

/// Calls per payload for the public-key operations (seal, open, verify).
const CRYPTO_REPS: usize = 40;
/// Calls per payload for the symmetric and codec operations.
const FAST_REPS: usize = 200;
/// Batches for nanosecond-scale operations, and calls per batch.
const BATCHES: usize = 200;
const PER_BATCH: usize = 100;

/// One message an agent's tour puts on the wire.
struct Hop {
    label: String,
    msg: Message,
}

/// Median per-call cost of each replayed operation.
#[derive(Debug, Clone, Default)]
pub struct Costs {
    /// Wire bytes of each data message (transfers, then the report).
    pub payload_bytes: Vec<usize>,
    /// Per data message, µs.
    pub dgram_seal_us: Vec<f64>,
    /// Per data message, µs (decode + open).
    pub dgram_open_us: Vec<f64>,
    /// Per data message, µs.
    pub channel_seal_us: Vec<f64>,
    /// Per data message, µs.
    pub channel_open_us: Vec<f64>,
    /// Per data message, µs.
    pub encode_us: Vec<f64>,
    /// Per data message, µs.
    pub decode_us: Vec<f64>,
    /// One ack: seal + open + encode + decode, datagram layer, µs.
    pub ack_dgram_us: f64,
    /// One ack through the channel (seal + open), µs.
    pub ack_channel_us: f64,
    /// Credential verification, µs.
    pub cred_verify_us: f64,
    /// Fresh name-space + module verify/load, µs.
    pub load_verify_us: f64,
    /// One WAL admission record append, µs (mean over the hops).
    pub wal_append_us: f64,
    /// One journal append, ns.
    pub journal_append_ns: f64,
    /// One metered proxy `get` with a journal attached, µs.
    pub invoke_us: f64,
    /// One store scan, µs.
    pub scan_us: f64,
    /// One store get, ns.
    pub get_ns: f64,
    /// Per data message: its sealed datagram sent over a Unix-socket
    /// pair and received at the far endpoint, µs.
    pub socket_deliver_us: Vec<f64>,
}

/// Times `reps` calls of `f`, one span each; returns the median µs.
fn each(
    rec: &mut Recorder,
    name: &'static str,
    key: &str,
    reps: usize,
    mut f: impl FnMut(),
) -> f64 {
    let mut us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        let end = Instant::now();
        rec.record(name, || key.to_string(), t, end);
        us.push((end - t).as_secs_f64() * 1e6);
    }
    stats::median(&stats::sorted(us))
}

/// Times [`BATCHES`] batches of [`PER_BATCH`] calls, one span per
/// batch; returns the median ns per call.
fn batched(rec: &mut Recorder, name: &'static str, mut f: impl FnMut(usize)) -> f64 {
    let mut ns = Vec::with_capacity(BATCHES);
    for b in 0..BATCHES {
        let t = Instant::now();
        for i in 0..PER_BATCH {
            f(b * PER_BATCH + i);
        }
        let end = Instant::now();
        rec.record(name, || format!("batch of {PER_BATCH}"), t, end);
        ns.push((end - t).as_secs_f64() * 1e9 / PER_BATCH as f64);
    }
    stats::median(&stats::sorted(ns))
}

fn identity(name: Urn, ca: &KeyPair, serial: u64, rng: &mut DetRng) -> (ChannelIdentity, KeyPair) {
    let keys = KeyPair::generate(rng);
    let cert = Certificate::issue(
        name.to_string(),
        keys.public,
        "ca.replay",
        ca,
        u64::MAX,
        serial,
        rng,
    );
    (
        ChannelIdentity {
            name,
            keys: keys.clone(),
            chain: vec![cert],
        },
        keys,
    )
}

fn server_name(i: usize) -> Urn {
    Urn::server(format!("site{i}.org"), ["s".to_string()]).expect("canonical server name")
}

/// The data messages of one agent's tour, at their real sizes.
fn tour(
    workload: Workload,
    image: &AgentImage,
    creds: &Credentials,
    inputs: &Inputs,
    expected: &str,
) -> Vec<Hop> {
    let ctx = SpanContext::root(TraceId(1), SpanId(1));
    let agent = creds.agent.clone();
    let transfer = |image: AgentImage, hop: u64| Message::Transfer {
        credentials: creds.clone(),
        image,
        hop,
        run_as: agent.clone(),
        arg: Vec::new(),
        ctx,
        sent_ns: 1,
    };
    let mut hops = Vec::new();
    if workload.collects() {
        let mut acc: Vec<u8> = Vec::new();
        for k in 0..inputs.populations.len() {
            let mut img = image.clone();
            let rest = Itinerary::new((k + 2..=inputs.populations.len()).map(server_name));
            img.globals = vec![
                Value::Bytes(rest.encode()),
                Value::Bytes(acc.clone()),
                Value::Bytes(selector_for().to_vec()),
            ];
            hops.push(Hop {
                label: format!("transfer-{}", k + 1),
                msg: transfer(img, k as u64),
            });
            let scan = RecordStore::new(store_urn(), store_urn(), inputs.populations[k].clone())
                .scan(selector_for());
            if !acc.is_empty() {
                acc.push(b'\n');
            }
            acc.extend_from_slice(&scan);
        }
    } else {
        hops.push(Hop {
            label: "transfer-1".into(),
            msg: transfer(image.clone(), 0),
        });
    }
    hops.push(Hop {
        label: "report".into(),
        msg: Message::Report {
            report: Report {
                agent,
                server: server_name(inputs.populations.len()),
                status: ReportStatus::Completed(expected.to_string()),
                at: 1,
            },
            seq: 1,
            ctx,
        },
    });
    hops
}

/// Two server identities under the replay's own CA (a world's server
/// keys are private to it) with an established secure channel between
/// them: the datagram and channel layers' replay rig.
struct Crypto {
    roots: RootOfTrust,
    a: (ChannelIdentity, KeyPair),
    b: (ChannelIdentity, KeyPair),
    tx: SecureChannel,
    rx: SecureChannel,
    rng: DetRng,
}

impl Crypto {
    fn new(seed: u64) -> Crypto {
        let mut rng = DetRng::new(seed);
        let ca = KeyPair::generate(&mut rng);
        let mut roots = RootOfTrust::new();
        roots.trust("ca.replay", ca.public);
        let a = identity(server_name(1), &ca, 1, &mut rng);
        let b = identity(server_name(2), &ca, 2, &mut rng);
        let (hello, pending) = SecureChannel::initiate(&a.0, &b.0.name, &mut rng);
        let (ack, rx) =
            SecureChannel::respond(&b.0, &roots, &hello, 0, &mut rng).expect("handshake");
        let tx = pending.finish(&roots, &ack, 0).expect("handshake");
        Crypto {
            roots,
            a,
            b,
            tx,
            rx,
            rng,
        }
    }

    /// Median µs of seal and open of `payload` as a sealed datagram, then
    /// of seal and open of that datagram in a channel frame.
    fn measure(&mut self, rec: &mut Recorder, key: &str, payload: &[u8]) -> ([f64; 4], Vec<u8>) {
        let (a, b, roots) = (&self.a, &self.b, &self.roots);
        let rng = &mut self.rng;
        let mut sealed = Vec::with_capacity(CRYPTO_REPS);
        let seal = each(rec, "net.dgram_seal", key, CRYPTO_REPS, || {
            let d = SealedDatagram::seal(&a.0, &b.0.name, b.1.public, payload, 1, rng);
            sealed.push(d.to_bytes());
        });
        let mut guard = ReplayGuard::new(u64::MAX / 4);
        let mut it = sealed.iter();
        let open = each(rec, "net.dgram_open", key, CRYPTO_REPS, || {
            let bytes = it.next().expect("one sealed datagram per open");
            let d = SealedDatagram::from_bytes(bytes).expect("decodes");
            black_box(d.open(&b.0, &b.1, roots, 1, &mut guard).expect("opens"));
        });

        let mut plain = Vec::new();
        encode_channel_frame_into(&a.0.name, &b.0.name, &sealed[0], &mut plain);
        let mut frames = Vec::with_capacity(FAST_REPS);
        let tx = &mut self.tx;
        let chan_seal = each(rec, "net.channel_seal", key, FAST_REPS, || {
            let mut out = Vec::with_capacity(tx.sealed_len(plain.len()));
            tx.seal_into(&plain, &mut out);
            frames.push(out);
        });
        let rx = &mut self.rx;
        let mut it = frames.iter();
        let mut out = Vec::new();
        let chan_open = each(rec, "net.channel_open", key, FAST_REPS, || {
            rx.open_into(it.next().expect("one frame per open"), &mut out)
                .expect("channel opens in order");
        });
        let datagram = sealed.swap_remove(0);
        ([seal, open, chan_seal, chan_open], datagram)
    }
}

impl Crypto {
    /// Median µs from `send_as` on one Unix-socket transport to `recv`
    /// on the other, per (key, sealed datagram): the socket layer's
    /// lanes, coalescing writer, channel sealing, framing and reader.
    fn socket_deliveries(
        &self,
        datagrams: &[(String, Vec<u8>)],
        tmp: &Path,
        rec: &mut Recorder,
    ) -> Vec<f64> {
        let bind = |tag: &str, (identity, _): &(ChannelIdentity, KeyPair)| {
            SocketTransport::bind(
                &NetAddr::Uds(tmp.join(format!("replay-{tag}.sock"))),
                SocketConfig {
                    identity: identity.clone(),
                    roots: self.roots.clone(),
                    seed: 7,
                },
            )
            .expect("binding a replay socket")
        };
        let (a, b) = (bind("a", &self.a), bind("b", &self.b));
        let (from, to) = (&self.a.0.name, &self.b.0.name);
        a.add_route(to.clone(), b.local_addr());
        let inbox = b.attach(to.clone()).expect("attaching the replay endpoint");
        let deliver = |payload: &[u8]| {
            a.send_as(from, to, payload.to_vec()).expect("replay send");
            inbox
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("replay delivery");
        };
        // The first delivery dials and handshakes.
        deliver(b"warm-up");
        let us = datagrams
            .iter()
            .map(|(key, d)| each(rec, "net.socket_deliver", key, FAST_REPS, || deliver(d)))
            .collect();
        drop(inbox);
        a.shutdown();
        b.shutdown();
        us
    }
}

/// What the replay takes from the measured run.
#[derive(Clone, Copy)]
pub struct Captured<'a> {
    /// The image every agent launched with.
    pub image: &'a AgentImage,
    /// One measured agent's credentials.
    pub credentials: &'a Credentials,
    /// The world's trust roots (which certify the agent's owner).
    pub roots: &'a RootOfTrust,
    /// The seeded inputs (store populations).
    pub inputs: &'a Inputs,
    /// The result a correct agent reports.
    pub expected: &'a str,
}

/// Replays every layer on the run's captured inputs.
pub fn replay(workload: Workload, cap: &Captured<'_>, tmp: &Path, rec: &mut Recorder) -> Costs {
    let Captured {
        image,
        credentials: creds,
        roots: world_roots,
        inputs,
        expected,
    } = *cap;
    let mut c = Costs::default();
    let hops = tour(workload, image, creds, inputs, expected);
    let mut crypto = Crypto::new(inputs.world_seed ^ 0x5EA1);
    let mut datagrams = Vec::new();

    for hop in &hops {
        let key = format!("{} {} B", hop.label, hop.msg.to_bytes().len());
        let bytes = hop.msg.to_bytes();
        c.payload_bytes.push(bytes.len());
        c.encode_us
            .push(each(rec, "wire.transfer_encode", &key, FAST_REPS, || {
                black_box(hop.msg.to_bytes());
            }));
        c.decode_us
            .push(each(rec, "wire.transfer_decode", &key, FAST_REPS, || {
                black_box(Message::from_bytes(&bytes).expect("decodes"));
            }));
        let ([s, o, cs, co], datagram) = crypto.measure(rec, &key, &bytes);
        datagrams.push((key, datagram));
        c.dgram_seal_us.push(s);
        c.dgram_open_us.push(o);
        c.channel_seal_us.push(cs);
        c.channel_open_us.push(co);
    }
    let ack = Message::Ack {
        kind: Ack::TRANSFER,
        agent: creds.agent.clone(),
        seq: 1,
    };
    let ack_bytes = ack.to_bytes();
    let ([s, o, cs, co], _) = crypto.measure(rec, "ack", &ack_bytes);
    let enc = each(rec, "wire.transfer_encode", "ack", FAST_REPS, || {
        black_box(ack.to_bytes());
    });
    let dec = each(rec, "wire.transfer_decode", "ack", FAST_REPS, || {
        black_box(Message::from_bytes(&ack_bytes).expect("decodes"));
    });
    c.ack_dgram_us = s + o + enc + dec;
    c.ack_channel_us = cs + co;
    c.socket_deliver_us = crypto.socket_deliveries(&datagrams, tmp, rec);

    c.cred_verify_us = each(rec, "core.cred_verify", "credentials", CRYPTO_REPS, || {
        black_box(
            creds
                .verify(world_roots, 1)
                .expect("captured credentials verify"),
        );
    });
    c.load_verify_us = each(rec, "vm.load_verify", "image", FAST_REPS, || {
        let mut ns = Namespace::with_system(&[]).expect("empty system set");
        black_box(ns.load(image.module.clone()).expect("image verifies"));
    });

    let wal_path = tmp.join("replay.wal");
    let wal = AdmissionWal::open(&wal_path).expect("opening the replay WAL");
    let admits: Vec<f64> = hops
        .iter()
        .filter_map(|h| match &h.msg {
            Message::Transfer {
                credentials,
                image,
                hop,
                run_as,
                arg,
                ctx,
                ..
            } => Some((
                h,
                AgentBundle {
                    agent: run_as.clone(),
                    hop: *hop,
                    credentials: credentials.clone(),
                    image: image.clone(),
                    arg: arg.clone(),
                    ctx: *ctx,
                    warm: None,
                },
            )),
            _ => None,
        })
        .map(|(h, bundle)| {
            let record = WalRecord::Admit(Box::new(bundle));
            each(rec, "wal.append", &h.label, FAST_REPS, || {
                wal.append(&record).expect("WAL append");
            })
        })
        .collect();
    c.wal_append_us = stats::mean(&admits);
    drop(wal);
    let _ = std::fs::remove_file(&wal_path);

    let journal = Journal::new();
    let charge = Event::MeterCharge {
        resource: store_urn(),
        holder: DomainId(7),
        method: "get".into(),
        amount: 1,
    };
    c.journal_append_ns = batched(rec, "telemetry.journal_append", |_| {
        black_box(journal.append(charge.clone()));
    });

    let store = RecordStore::new(store_urn(), store_urn(), inputs.populations[0].clone());
    let guarded = Guarded::new(
        Arc::clone(&store),
        ProxyPolicy {
            meter_mode: MeterMode::CountAndTime,
            default_tariff: 1,
            ..ProxyPolicy::default()
        },
    );
    let requester = Requester {
        agent: creds.agent.clone(),
        owner: creds.owner.clone(),
        domain: DomainId(7),
        rights: Rights::all(),
    };
    let proxy = guarded
        .get_proxy(&requester, 0)
        .expect("bench requester is allowed");
    proxy
        .control()
        .attach_journal(Arc::new(Journal::new()), store_urn());
    c.invoke_us = batched(rec, "core.invoke", |i| {
        black_box(
            proxy
                .invoke(
                    DomainId(7),
                    "get",
                    &[Value::Int((i % ACCESS_KEYS) as i64)],
                    0,
                )
                .expect("metered get"),
        );
    }) / 1e3;
    c.scan_us = each(rec, "store.scan", "store 1", FAST_REPS, || {
        black_box(store.scan(selector_for()));
    });
    c.get_ns = batched(rec, "store.get", |i| {
        black_box(store.get(i % ACCESS_KEYS));
    });
    c
}
