//! Seeded input generation: the genome and the reads every workload
//! uses. `kmm` only ever sees the files written here.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

use kmm_dna::fasta::{self, FastaRecord};
use kmm_dna::fastq::{self, FastqRecord};
use kmm_dna::genome::ReferenceGenome;
use kmm_dna::{ReadSimConfig, ReadSimulator};
use kmm_telemetry::Json;

use crate::args::Args;

/// Reads are the paper's length (Table 2 uses 100 bp).
const READ_LEN: usize = 100;

/// Derive an independent stream seed from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The rat-chr1 stand-in (2.9 Mbp, the default 40 % interspersed plus
/// tandem repeats), exactly as `kmm generate --genome rat-chr1` writes
/// it. It is the same for every seed: a Markov table drawn per seed
/// changes the repeat structure, and with it A(.)'s cost per read, by
/// more than the benchmark's bounds allow between seeds.
pub fn genome() -> Vec<u8> {
    ReferenceGenome::RatChr1.generate()
}

/// wgsim-style 100 bp reads from either strand (wgsim's defaults: 2 %
/// sequencing error, 0.1 % mutations), matching `--both-strands true`.
pub fn reads(genome: &[u8], count: usize, seed: u64) -> Vec<FastqRecord> {
    let config = ReadSimConfig {
        read_len: READ_LEN,
        ..ReadSimConfig::default()
    };
    let sim = ReadSimulator::new(genome, config, mix(seed, 2)).reads(count);
    fastq::simulated_to_fastq(&sim, 35)
}

fn genome_path(dir: &Path) -> std::path::PathBuf {
    dir.join("ref.fa")
}

pub fn reads_path(dir: &Path) -> std::path::PathBuf {
    dir.join("reads.fq")
}

pub fn load_genome(dir: &Path) -> Result<Vec<u8>, String> {
    let path = genome_path(dir);
    let file = File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut recs =
        fasta::read_fasta(BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))?;
    match recs.len() {
        1 => Ok(recs.remove(0).seq),
        n => Err(format!(
            "{}: expected one record, found {n}",
            path.display()
        )),
    }
}

pub fn load_reads(path: &Path) -> Result<Vec<FastqRecord>, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    fastq::read_fastq(BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))
}

/// `gen`: write `ref.fa` and `reads.fq` into `--out`.
pub fn run(args: &Args) -> Result<Json, String> {
    let seed: u64 = args.num("seed")?;
    let count: usize = args.num("reads")?;
    let dir = args.path("out")?;
    let g = genome();
    let rs = reads(&g, count, seed);
    let io = |e: std::io::Error| e.to_string();
    let mut w = BufWriter::new(File::create(genome_path(&dir)).map_err(io)?);
    let record = FastaRecord {
        id: ReferenceGenome::RatChr1.name().to_string(),
        seq: g.clone(),
    };
    fasta::write_fasta(&mut w, &[record]).map_err(io)?;
    w.flush().map_err(io)?;
    let mut w = BufWriter::new(File::create(reads_path(&dir)).map_err(io)?);
    fastq::write_fastq(&mut w, &rs).map_err(io)?;
    w.flush().map_err(io)?;
    Ok(Json::obj([
        ("genome_bp", Json::UInt(g.len() as u64)),
        ("reads", Json::UInt(rs.len() as u64)),
    ]))
}
