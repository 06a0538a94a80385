//! `moat-archive` — inspect and maintain a persistent tuning archive.
//!
//! ```text
//! moat-archive <COMMAND> --archive <DIR> [OPTIONS]
//!
//!   list                              one summary line per stored record
//!   show --key <ID> [--json|--table]  print one record (its Pareto front, or
//!                                     --json: raw record, --table: the version
//!                                     table loaded from the archive)
//!   merge --from <DIR>                merge another archive into this one
//!         [--merge-across-backends]   (required to combine fronts recorded by
//!                                     different backend rosters; the default
//!                                     refuses rather than conflate them)
//!   prune --max-front <K>             shrink every front to at most K points
//!   export-json [--out <FILE>]        dump the archive as one JSON array
//!   import --file <FILE>              merge an exported dump (or one record)
//! ```
//!
//! Keys are the ids printed by `list` (`<skeleton>-<space>-<machine>`, three
//! 16-digit hex fields). All mutating commands are atomic per record.

use moat::archive::{Archive, ArchiveKey};
use moat::multiversion::VersionTable;
use std::process::exit;

fn usage() -> ! {
    eprintln!("{}", moat::usage_text(include_str!("moat-archive.rs")));
    exit(2)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    exit(1)
}

#[derive(Debug, Default)]
struct Opts {
    command: String,
    archive: Option<String>,
    key: Option<String>,
    from: Option<String>,
    max_front: Option<usize>,
    out: Option<String>,
    file: Option<String>,
    json: bool,
    table: bool,
    merge_across_backends: bool,
}

fn parse_args() -> Opts {
    let mut opts = Opts::default();
    let mut args = std::env::args().skip(1);
    opts.command = match args.next() {
        Some(c) if !c.starts_with('-') => c,
        Some(_) | None => usage(),
    };
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                exit(2)
            })
        };
        match arg.as_str() {
            "--archive" => opts.archive = Some(value("--archive")),
            "--key" => opts.key = Some(value("--key")),
            "--from" => opts.from = Some(value("--from")),
            "--max-front" => {
                opts.max_front = Some(value("--max-front").parse().unwrap_or_else(|_| usage()))
            }
            "--out" => opts.out = Some(value("--out")),
            "--file" => opts.file = Some(value("--file")),
            "--json" => opts.json = true,
            "--table" => opts.table = true,
            "--merge-across-backends" => opts.merge_across_backends = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option: {other}");
                usage()
            }
        }
    }
    opts
}

fn open(opts: &Opts) -> Archive {
    let Some(root) = &opts.archive else {
        eprintln!("--archive <DIR> is required");
        exit(2)
    };
    Archive::open(root).unwrap_or_else(|e| fail(e))
}

fn required_key(opts: &Opts) -> ArchiveKey {
    let Some(id) = &opts.key else {
        eprintln!("--key <ID> is required (see `moat-archive list`)");
        exit(2)
    };
    ArchiveKey::parse_id(id).unwrap_or_else(|| {
        fail(format!(
            "malformed key {id:?}: expected <skeleton>-<space>-<machine> hex id"
        ))
    })
}

fn main() {
    let opts = parse_args();
    match opts.command.as_str() {
        "list" => {
            let archive = open(&opts);
            let records = archive.list().unwrap_or_else(|e| fail(e));
            if records.is_empty() {
                println!("archive {} is empty", opts.archive.as_deref().unwrap());
                return;
            }
            for rec in records {
                // Backend roster note only for provenance-tagged records:
                // pre-provenance archives list exactly as before.
                let backends: Vec<String> = rec
                    .backend_set()
                    .into_iter()
                    .flatten()
                    .map(|id| id.to_string())
                    .collect();
                let backends = if backends.is_empty() {
                    String::new()
                } else {
                    format!(" backends={}", backends.join(","))
                };
                println!(
                    "{}  region={} skeleton={} machine={} |front|={} E={} runs={} self-hv={:.3}{backends}",
                    rec.key,
                    rec.region,
                    rec.skeleton,
                    rec.machine.name,
                    rec.front.len(),
                    rec.evaluations,
                    rec.runs,
                    rec.self_hypervolume()
                );
            }
        }
        "show" => {
            let archive = open(&opts);
            let key = required_key(&opts);
            let rec = archive
                .get(&key)
                .unwrap_or_else(|e| fail(e))
                .unwrap_or_else(|| fail(format!("no record for key {key}")));
            if opts.json {
                println!("{}", rec.to_json());
            } else if opts.table {
                // The runtime-facing view: the same version table the
                // multi-versioning backend would embed.
                println!("{}", VersionTable::from_archive(&rec, None).to_json());
            } else {
                println!("key:        {}", rec.key);
                println!("region:     {}", rec.region);
                println!("skeleton:   {}", rec.skeleton);
                println!("machine:    {}", rec.machine.name);
                println!("runs:       {}", rec.runs);
                println!("evals:      {}", rec.evaluations);
                println!("self-hv:    {:.3}", rec.self_hypervolume());
                let tagged = rec.front.iter().any(|p| p.provenance.is_some());
                let names = rec.objective_names.join("  ");
                // The provenance column appears only for records whose
                // front is backend-tagged: v1 records print as before.
                if tagged {
                    println!("\n{:<48}  {names:<24}  backend", rec.param_names.join(" "));
                } else {
                    println!("\n{:<48}  {names}", rec.param_names.join(" "));
                }
                for p in &rec.front {
                    let cfg = p
                        .config
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(" ");
                    let objs = p
                        .objectives
                        .iter()
                        .map(|o| format!("{o:<10.4}"))
                        .collect::<Vec<_>>()
                        .join("  ");
                    if tagged {
                        let backend = p
                            .provenance
                            .as_ref()
                            .map_or("-".to_string(), |pr| pr.to_string());
                        println!("{cfg:<48}  {objs:<24}  {backend}");
                    } else {
                        println!("{cfg:<48}  {objs}");
                    }
                }
            }
        }
        "merge" => {
            let archive = open(&opts);
            let Some(from) = &opts.from else {
                eprintln!("--from <DIR> is required");
                exit(2)
            };
            let source = Archive::open(from).unwrap_or_else(|e| fail(e));
            let records = source.list().unwrap_or_else(|e| fail(e));
            let count = records.len();
            // One read + one atomic write per destination key, instead of
            // a read-modify-write cycle per record.
            let stats = archive
                .merge_batch(&records, opts.merge_across_backends)
                .unwrap_or_else(|e| fail(e));
            let inserted: usize = stats.iter().map(|s| s.inserted).sum();
            let rejected: usize = stats.iter().map(|s| s.rejected).sum();
            println!(
                "merged {count} records from {from}: {inserted} points inserted, {rejected} dominated/duplicate"
            );
        }
        "prune" => {
            let archive = open(&opts);
            let Some(k) = opts.max_front else {
                eprintln!("--max-front <K> is required");
                exit(2)
            };
            if k == 0 {
                fail("--max-front must be at least 1");
            }
            let rewritten = archive.prune(k).unwrap_or_else(|e| fail(e));
            println!("pruned {rewritten} records to at most {k} front points");
        }
        "export-json" => {
            let archive = open(&opts);
            let dump = archive.export_json().unwrap_or_else(|e| fail(e));
            match &opts.out {
                Some(path) => {
                    std::fs::write(path, &dump)
                        .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
                    println!("wrote {path}");
                }
                None => println!("{dump}"),
            }
        }
        "import" => {
            let archive = open(&opts);
            let Some(path) = &opts.file else {
                eprintln!("--file <FILE> is required");
                exit(2)
            };
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
            let stats = archive.import_json(&text).unwrap_or_else(|e| fail(e));
            let inserted: usize = stats.iter().map(|s| s.inserted).sum();
            let rejected: usize = stats.iter().map(|s| s.rejected).sum();
            println!(
                "imported {} records from {path}: {inserted} points inserted, {rejected} dominated/duplicate",
                stats.len()
            );
        }
        other => {
            eprintln!("unknown command: {other}");
            usage()
        }
    }
}
