//! The traced run's in-process half: the calls `kmm index` and
//! `kmm map` make, one span around each layer's public entry point,
//! the shipped `kmm map` on the same inputs for the layer sum, and the
//! recorded and per-read passes the per-layer metrics need.

use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use kmm_bwt::{build_mirror, FmBuildConfig, FmIndex, OpenStats};
use kmm_core::{KMismatchIndex, MapReport, MapperConfig, RTable, ReadMapper};
use kmm_dna::alphabet::SIGMA;
use kmm_dna::fastq::FastqRecord;
use kmm_dna::reverse_complement;
use kmm_par::ThreadPool;
use kmm_telemetry::{Counter, Json, MetricsRecorder};

use crate::args::Args;
use crate::tracer::Tracer;
use crate::{gen, parse_method};

/// Reads timed one by one (at least 1 010 give a p99 with ten beyond).
const SERIAL_READS: usize = 1200;

/// In-process map pipelines, each paired with one `kmm map` process on
/// the same files. The layer sum sets the fastest pipeline against the
/// slowest `kmm map`: on a shared host one 3 s job of either varies by
/// ~±10 %, more than `kmm map` spends outside the pipeline on map-a-k3.
const MAP_REPEATS: u64 = 5;

/// Counters of the recorded batch that the per-layer metrics divide.
const COUNTERS: [Counter; 13] = [
    Counter::RankBlocksTouched,
    Counter::RankBytesScanned,
    Counter::NodesVisited,
    Counter::NodesMaterialized,
    Counter::Leaves,
    Counter::Occurrences,
    Counter::MtreeNodesBuilt,
    Counter::MtreeNodesReused,
    Counter::Resumes,
    Counter::RarrayProbes,
    Counter::OccPairFused,
    Counter::OccFused,
    Counter::ReadsTotal,
];

/// Save the way `kmm index` does: the v3 container, flushed and synced.
fn save(fm: &FmIndex, mirror: Option<&kmm_bwt::RankAll>, path: &Path) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    match mirror {
        Some(m) => fm.save_with_mirror(m, &mut w)?,
        None => fm.save(&mut w)?,
    }
    w.flush()?;
    w.get_ref().sync_all()
}

/// What `kmm map` does before it formats output: open, parse, search.
fn map_pipeline(
    t: &mut Tracer,
    rep: u64,
    idx_path: &Path,
    reads_path: &Path,
    mmap: bool,
    config: MapperConfig,
    pool: &ThreadPool,
) -> Result<(KMismatchIndex, Vec<FastqRecord>, Vec<MapReport>, OpenStats), String> {
    let id = Some(rep);
    t.begin("map", id);
    let (fm, mirror, open) = t
        .span("bwt.open", id, || {
            FmIndex::open_path_with_mirror(idx_path, mmap)
        })
        .map_err(|e| format!("{}: {e}", idx_path.display()))?;
    let index = KMismatchIndex::from_fm_with_mirror(fm, mirror);
    let reads = t.span("dna.parse", id, || gen::load_reads(reads_path))?;
    let seqs: Vec<&[u8]> = reads.iter().map(|r| r.seq.as_slice()).collect();
    let batch = t.span("core.search", id, || {
        ReadMapper::new(&index, config).map_batch(&seqs, pool)
    });
    t.end();
    Ok((index, reads, batch, open))
}

/// `layers`: build, save, open, parse and map in-process under spans.
pub fn run(args: &Args) -> Result<Json, String> {
    let dir = args.path("dir")?;
    let k: usize = args.num("k")?;
    let method_name = args.str("method")?;
    let method = parse_method(method_name)?;
    let threads: usize = args.num("threads")?;
    let bidir = args.flag("bidir")?;
    let mmap = args.flag("mmap")?;
    let kmm = args.path("kmm")?;

    let mut t = Tracer::new(Instant::now());
    t.begin("layers", None);

    // What `kmm index [--bidir]` does: SA-IS over rev(T)$, the FM-index
    // from that suffix array, the mirror over T$, then the save.
    t.begin("index", None);
    let genome = t.span("dna.fasta", None, || gen::load_genome(&dir))?;
    let mut rev = genome.clone();
    rev.reverse();
    rev.push(0);
    let sa = t.span("suffix.sa", None, || kmm_suffix::suffix_array(&rev, SIGMA));
    let build = FmBuildConfig::default().with_threads(threads);
    let fm = t.span("bwt.build", None, || FmIndex::from_sa(&rev, &sa, build));
    drop((sa, rev));
    let mut fwd = genome;
    fwd.push(0);
    // `kmm index --bidir` builds the mirror on one thread.
    let mirror = t
        .span("bwt.mirror", None, || build_mirror(&fwd, fm.rank_rate(), 1))
        .map_err(|e| e.to_string())?;
    drop(fwd);
    let idx_path = dir.join("ref.idx");
    t.span("bwt.save", None, || {
        save(&fm, bidir.then_some(&mirror), &idx_path)
    })
    .map_err(|e| format!("{}: {e}", idx_path.display()))?;
    drop((fm, mirror));
    t.end();

    let reads_path = gen::reads_path(&dir);
    let config = MapperConfig {
        k,
        both_strands: true,
        method,
    };
    let pool = ThreadPool::new(threads);
    let tsv = dir.join("map.tsv");
    let k_arg = k.to_string();
    let threads_arg = threads.to_string();
    let kmm_map = |t: &mut Tracer, rep: u64| -> Result<(), String> {
        let out = File::create(&tsv).map_err(|e| format!("{}: {e}", tsv.display()))?;
        let status = t.span("cli.kmm_map", Some(rep), || {
            Command::new(&kmm)
                .args(["map", "--index"])
                .arg(&idx_path)
                .arg("--reads")
                .arg(&reads_path)
                .args([
                    "-k",
                    &k_arg,
                    "--method",
                    method_name,
                    "--both-strands",
                    "true",
                ])
                .args(["--threads", &threads_arg])
                .stdout(out)
                .stderr(Stdio::null())
                .status()
        });
        match status {
            Ok(s) if s.success() => Ok(()),
            Ok(s) => Err(format!("kmm map exited with {s}")),
            Err(e) => Err(format!("{}: {e}", kmm.display())),
        }
    };
    let mut last = None;
    for rep in 0..MAP_REPEATS {
        // Odd pairs run `kmm map` first, so a host that speeds up or
        // slows down over the pairs favours neither side.
        if rep % 2 == 1 {
            kmm_map(&mut t, rep)?;
        }
        last = Some(map_pipeline(
            &mut t,
            rep,
            &idx_path,
            &reads_path,
            mmap,
            config,
            &pool,
        )?);
        if rep % 2 == 0 {
            kmm_map(&mut t, rep)?;
        }
    }
    let (index, reads, batch, open) = last.expect("MAP_REPEATS > 0");
    let seqs: Vec<&[u8]> = reads.iter().map(|r| r.seq.as_slice()).collect();
    let mapper = ReadMapper::new(&index, config);

    // Per-read times on one thread, one span per read.
    let serial = &seqs[..SERIAL_READS.min(seqs.len())];
    t.begin("core.serial", None);
    for (i, read) in serial.iter().enumerate() {
        let report = t.span("core.read", Some(i as u64), || mapper.map(read));
        if report != batch[i] {
            return Err(format!("read {i}: serial map differs from the batch"));
        }
    }
    t.end();

    let recorder = MetricsRecorder::new();
    let recorded = t.span("core.search_recorded", None, || {
        mapper.map_batch_recorded(&seqs, &pool, &recorder)
    });
    if recorded != batch {
        return Err("recorded batch differs from the unrecorded batch".into());
    }
    let snapshot = recorder.snapshot();

    // A(.)'s pattern preprocessing for both strands of every read.
    t.span("core.preprocess", None, || {
        for read in &seqs {
            black_box(RTable::new(read, k));
            black_box(RTable::new(&reverse_complement(read), k));
        }
    });
    t.end();

    // The tracer's own cost per span, on a throwaway tracer.
    const PROBES: u64 = 100_000;
    let mut probe = Tracer::new(Instant::now());
    let probe_start = Instant::now();
    for i in 0..PROBES {
        probe.span("probe", Some(i), || ());
    }
    let span_cost_ns = probe_start.elapsed().as_nanos() as f64 / PROBES as f64;

    let counters = COUNTERS
        .iter()
        .map(|&c| (c.name(), Json::UInt(snapshot.counter(c))));
    Ok(Json::obj([
        ("reads", Json::UInt(seqs.len() as u64)),
        ("span_cost_ns", Json::Float(span_cost_ns)),
        ("open_io_bytes", Json::UInt(open.io_bytes)),
        ("counters", Json::obj(counters)),
        ("spans", t.to_json()),
    ]))
}
