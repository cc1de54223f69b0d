//! End-to-end tests of the `gpumem-cli` binary: FASTA in, MUMmer-style
//! match lines out, identical across tools.

use std::io::Write;
use std::process::Command;

use gpumem::seq::{write_fasta, FastaRecord, GenomeModel, MutationModel, PackedSeq};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gpumem-cli"))
}

fn write_pair(dir: &std::path::Path) -> (String, String) {
    let reference = GenomeModel::mammalian().generate(8_000, 1234);
    let query = {
        let model = MutationModel {
            sub_rate: 0.03,
            indel_rate: 0.003,
        };
        let mut rng = StdRng::seed_from_u64(1235);
        PackedSeq::from_codes(&model.apply(&reference.to_codes(), &mut rng))
    };
    let write = |name: &str, seq: &PackedSeq| -> String {
        let path = dir.join(name);
        let mut file = std::fs::File::create(&path).unwrap();
        write_fasta(
            &mut file,
            &[FastaRecord {
                header: name.into(),
                seq: seq.clone(),
            }],
        )
        .unwrap();
        file.flush().unwrap();
        path.to_str().unwrap().to_string()
    };
    (write("ref.fa", &reference), write("query.fa", &query))
}

#[test]
fn all_tools_print_identical_matches() {
    let dir = std::env::temp_dir().join("gpumem-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);

    let run = |tool: &str| -> String {
        let out = cli()
            .args([
                "run",
                "--tool",
                tool,
                "--min-len",
                "25",
                ref_fa.as_str(),
                query_fa.as_str(),
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{tool} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };

    let gpumem = run("gpumem");
    assert!(!gpumem.trim().is_empty(), "expected matches");
    for tool in ["mummer", "essamem", "sparsemem", "slamem"] {
        assert_eq!(run(tool), gpumem, "{tool} output differs");
    }
}

#[test]
fn mum_filter_is_a_subset() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-mum");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);

    let lines = |extra: &[&str]| -> Vec<String> {
        let mut args = vec!["run", "--tool", "mummer", "--min-len", "25"];
        args.extend_from_slice(extra);
        args.push(ref_fa.as_str());
        args.push(query_fa.as_str());
        let out = cli().args(&args).output().expect("binary runs");
        assert!(out.status.success());
        String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    };

    let all = lines(&[]);
    let mums = lines(&["--mum"]);
    assert!(!mums.is_empty());
    assert!(mums.len() <= all.len());
    for line in &mums {
        assert!(all.contains(line), "MUM line not in MEM output: {line}");
    }
}

#[test]
fn sanitize_flag_reports_clean_run() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-sanitize");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);

    let out = cli()
        .args([
            "run",
            "--tool",
            "gpumem",
            "--min-len",
            "25",
            "--seed-len",
            "8",
            "--sanitize",
            ref_fa.as_str(),
            query_fa.as_str(),
        ])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "sanitized run failed: {err}");
    assert!(err.contains("sanitizer:"), "missing report: {err}");
    assert!(err.contains("0 hazard(s)"), "expected clean report: {err}");

    // The report must not change the matches themselves.
    let plain = cli()
        .args([
            "run",
            "--tool",
            "gpumem",
            "--min-len",
            "25",
            "--seed-len",
            "8",
            ref_fa.as_str(),
            query_fa.as_str(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.stdout, plain.stdout);
}

#[test]
fn sanitize_flag_sees_the_launches_of_sharded_runs() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-sanitize-shards");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);

    let out = cli()
        .args([
            "run",
            "--tool",
            "gpumem",
            "--min-len",
            "25",
            "--seed-len",
            "8",
            "--shards",
            "2",
            "--sanitize",
            ref_fa.as_str(),
            query_fa.as_str(),
        ])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "sanitized sharded run failed: {err}");
    assert!(err.contains("0 hazard(s)"), "expected clean report: {err}");
    let launches: u64 = err
        .split("sanitizer: ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no launch count in report: {err}"));
    assert!(launches > 0, "the session saw no shard launch: {err}");
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = cli()
        .args(["run", "only-one-file.fa"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");

    let out = cli()
        .args([
            "run",
            "--tool",
            "nonsense",
            "/nonexistent/a.fa",
            "/nonexistent/b.fa",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());

    // Flag values a finder cannot take are refused with the usage, not
    // a panic inside the finder.
    let dir = std::env::temp_dir().join("gpumem-cli-test-bad-values");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);
    let cases: &[&[&str]] = &[
        &["--tool", "mummer", "--min-len", "0"],
        &["--tool", "slamem", "--min-len", "0"],
        &["--tool", "essamem", "--min-len", "0"],
        &["--tool", "sparsemem", "--min-len", "0"],
        &["--tool", "essamem", "--sparseness", "0"],
        &["--tool", "sparsemem", "--sparseness", "0"],
        &["--tool", "essamem", "--sparseness", "8", "--min-len", "6"],
        &["--tool", "sparsemem", "--sparseness", "8", "--min-len", "6"],
        &["--tool", "mummer", "--rare", "0"],
        &["--tool", "gpumem", "--seed-len", "8", "--rare", "0"],
        &["--tool", "gpumem", "--seed-len", "0"],
    ];
    for args in cases {
        let out = cli()
            .arg("run")
            .args(*args)
            .args([&ref_fa, &query_fa])
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(err.contains("error: bad --"), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}

/// Empty records: an empty reference or an empty query yields no match
/// and a clean exit, and an empty record among others changes nothing
/// for its neighbours, with every tool.
#[test]
fn empty_records_print_nothing_and_spare_their_neighbours() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-empty-records");
    std::fs::create_dir_all(&dir).unwrap();
    let reference = GenomeModel::mammalian().generate(3_000, 4600);
    let text = String::from_utf8(reference.to_ascii()).unwrap();
    let write = |name: &str, body: String| -> String {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        path.to_str().unwrap().to_string()
    };
    let ref_fa = write("ref.fa", format!(">ref\n{text}\n"));
    let empty_ref_fa = write("empty_ref.fa", ">ref\n".into());
    let query_fa = write("query.fa", format!(">q\n{}\n", &text[200..900]));
    let empty_query_fa = write("empty_query.fa", ">q\n".into());
    let three_fa = write(
        "three.fa",
        format!(
            ">a\n{}\n>empty\n>b\n{}\n",
            &text[200..900],
            &text[1_500..2_400]
        ),
    );
    let run = |tool: &str, ref_fa: &str, query_fa: &str| -> String {
        let out = cli()
            .args(["run", "--tool", tool, "--min-len", "25", "--seed-len", "8"])
            .args([ref_fa, query_fa])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{tool} {ref_fa} {query_fa}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    for tool in ["gpumem", "mummer", "essamem", "sparsemem", "slamem"] {
        assert_eq!(
            run(tool, &empty_ref_fa, &query_fa),
            "",
            "{tool}: empty reference"
        );
        assert_eq!(
            run(tool, &ref_fa, &empty_query_fa),
            "",
            "{tool}: empty query"
        );
        let out = run(tool, &ref_fa, &three_fa);
        let names: Vec<&str> = out
            .lines()
            .map(|line| line.split_whitespace().last().unwrap())
            .collect();
        assert!(
            names.contains(&"a") && names.contains(&"b"),
            "{tool}: {out}"
        );
        assert!(
            names.iter().all(|&name| name == "a" || name == "b"),
            "{tool}: {out}"
        );
    }
}

#[test]
fn multi_record_query_groups_hits_and_names_records() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-multi");
    std::fs::create_dir_all(&dir).unwrap();

    let reference = GenomeModel::mammalian().generate(8_000, 4321);
    let model = MutationModel {
        sub_rate: 0.03,
        indel_rate: 0.003,
    };
    let records: Vec<FastaRecord> = (0..3)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(4400 + i);
            FastaRecord {
                header: format!("read{i}"),
                seq: PackedSeq::from_codes(&model.apply(&reference.to_codes(), &mut rng)),
            }
        })
        .collect();

    let write = |name: &str, records: &[FastaRecord]| -> String {
        let path = dir.join(name);
        let mut file = std::fs::File::create(&path).unwrap();
        write_fasta(&mut file, records).unwrap();
        file.flush().unwrap();
        path.to_str().unwrap().to_string()
    };
    let ref_fa = write(
        "ref.fa",
        &[FastaRecord {
            header: "ref".into(),
            seq: reference.clone(),
        }],
    );
    let all_fa = write("queries.fa", &records);

    let run = |tool: &str, query_fa: &str, extra: &[&str]| -> String {
        let mut args = vec!["run", "--tool", tool, "--min-len", "25"];
        args.extend_from_slice(extra);
        args.push(ref_fa.as_str());
        args.push(query_fa);
        let out = cli().args(&args).output().expect("binary runs");
        assert!(
            out.status.success(),
            "{tool} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };

    let batched = run("gpumem", &all_fa, &["--query-threads", "2"]);
    assert!(!batched.trim().is_empty(), "expected matches");

    // The batched run must equal the concatenation of per-record runs,
    // with the record name appended to every line, in input order.
    let mut expect = String::new();
    for (i, record) in records.iter().enumerate() {
        let one_fa = write(&format!("q{i}.fa"), std::slice::from_ref(record));
        for line in run("gpumem", &one_fa, &[]).lines() {
            expect.push_str(line);
            expect.push(' ');
            expect.push_str(&record.header);
            expect.push('\n');
        }
    }
    assert_eq!(batched, expect);

    // Worker count must not change the output, and the CPU baselines
    // must agree with the engine on multi-record input too.
    assert_eq!(run("gpumem", &all_fa, &["--query-threads", "4"]), batched);
    assert_eq!(run("mummer", &all_fa, &[]), batched);
}

#[test]
fn seed_mode_dual_matches_ref_only_output() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-seedmode");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);

    let run = |extra: &[&str]| -> String {
        let mut args = vec!["run", "--tool", "gpumem", "--min-len", "25"];
        args.extend_from_slice(extra);
        args.push(ref_fa.as_str());
        args.push(query_fa.as_str());
        let out = cli().args(&args).output().expect("binary runs");
        assert!(
            out.status.success(),
            "gpumem {extra:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };

    let ref_only = run(&["--seed-mode", "ref"]);
    assert_eq!(ref_only, run(&[]), "--seed-mode ref is the default");
    assert!(!ref_only.trim().is_empty(), "expected matches");
    // Auto-derived pair (L = 25, default ℓs = 13 → bound 13) and an
    // explicit valid pair both reproduce the exact MEM set.
    assert_eq!(run(&["--seed-mode", "dual"]), ref_only);
    assert_eq!(run(&["--seed-mode", "dual:3,4"]), ref_only);
}

#[test]
fn seed_mode_validation_errors_are_structured() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-seedmode-err");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);

    let fail = |extra: &[&str]| -> String {
        let mut args = vec!["run", "--tool", "gpumem", "--min-len", "25"];
        args.extend_from_slice(extra);
        args.push(ref_fa.as_str());
        args.push(query_fa.as_str());
        let out = cli().args(&args).output().expect("binary runs");
        assert!(!out.status.success(), "expected {extra:?} to fail");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };

    // gcd(4, 6) = 2: the structured IndexError names the co-prime
    // requirement.
    let err = fail(&["--seed-mode", "dual:4,6"]);
    assert!(err.contains("co-prime"), "{err}");

    // 13 · 9 = 117 over the bound L − ℓs + 1 = 13: the error names the
    // coverage bound.
    let err = fail(&["--seed-mode", "dual:13,9"]);
    assert!(err.contains("k1*k2"), "{err}");

    // A step of zero and a malformed mode string fail cleanly too.
    let err = fail(&["--seed-mode", "dual:0,3"]);
    assert!(err.contains("step"), "{err}");
    let err = fail(&["--seed-mode", "banana"]);
    assert!(err.contains("expected ref or dual"), "{err}");
    let err = fail(&["--seed-mode", "dual:5"]);
    assert!(err.contains("expected dual:<k1>,<k2>"), "{err}");
}

#[test]
fn whitespace_inside_query_sequence_lines_changes_nothing() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-whitespace");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);
    // The same query with a space after base 50 and a tab inside a
    // later sequence line.
    let clean = std::fs::read_to_string(&query_fa).unwrap();
    let mut lines: Vec<String> = clean.lines().map(str::to_string).collect();
    lines[1].insert(50, ' ');
    lines[3].insert(20, '\t');
    let spaced_fa = dir.join("query_spaced.fa");
    std::fs::write(&spaced_fa, lines.join("\n") + "\n").unwrap();

    let run = |query: &str| -> String {
        let out = cli()
            .args([
                "run",
                "--min-len",
                "25",
                "--seed-len",
                "8",
                ref_fa.as_str(),
                query,
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{query}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let expect = run(&query_fa);
    assert!(!expect.trim().is_empty(), "expected matches");
    assert_eq!(run(spaced_fa.to_str().unwrap()), expect);
}

#[test]
fn multi_record_reference_is_refused() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-multi-ref");
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, records: &[FastaRecord]| -> String {
        let path = dir.join(name);
        let mut file = std::fs::File::create(&path).unwrap();
        write_fasta(&mut file, records).unwrap();
        file.flush().unwrap();
        path.to_str().unwrap().to_string()
    };
    let second = GenomeModel::mammalian().generate(2_400, 4502);
    let ref_fa = write(
        "two_records.fa",
        &[
            FastaRecord {
                header: "first".into(),
                seq: GenomeModel::mammalian().generate(2_000, 4501),
            },
            FastaRecord {
                header: "second".into(),
                seq: second.clone(),
            },
        ],
    );
    // A copy of the second record: a run cut to the first record finds
    // none of it.
    let query_fa = write(
        "query.fa",
        &[FastaRecord {
            header: "copy".into(),
            seq: second,
        }],
    );
    let handles = dir.join("handles.tsv");
    let _ = std::fs::remove_file(&handles);
    let handles = handles.to_str().unwrap();
    let (r, q) = (ref_fa.as_str(), query_fa.as_str());
    for args in [
        vec!["run", "--min-len", "25", "--seed-len", "8", r, q],
        vec!["run", "--tool", "mummer", "--min-len", "25", r, q],
        vec!["metrics", "export", "--seed-len", "8", r, q],
        vec!["registry", "add", handles, "two", r, "--seed-len", "8"],
    ] {
        let out = cli().args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{r}: reference FASTA holds 2 records")),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn bare_flag_form_is_refused_with_usage() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-subcmd");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);

    let bare = cli()
        .args(["--tool", "mummer", "--min-len", "25", &ref_fa, &query_fa])
        .output()
        .expect("binary runs");
    assert_eq!(bare.status.code(), Some(2));
    assert!(bare.stdout.is_empty(), "the bare form printed matches");
    let err = String::from_utf8_lossy(&bare.stderr);
    assert!(err.contains("unknown command --tool"), "{err}");
    assert!(err.contains("usage: gpumem-cli run"), "{err}");

    let sub = cli()
        .args([
            "run",
            "--tool",
            "mummer",
            "--min-len",
            "25",
            &ref_fa,
            &query_fa,
        ])
        .output()
        .expect("binary runs");
    assert!(sub.status.success());
    assert!(!sub.stdout.is_empty(), "expected matches");
}

#[test]
fn shards_flag_preserves_output() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-shards");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);

    let run = |extra: &[&str]| -> Vec<u8> {
        let mut args = vec!["run", "--tool", "gpumem", "--min-len", "25"];
        args.extend_from_slice(extra);
        args.push(ref_fa.as_str());
        args.push(query_fa.as_str());
        let out = cli().args(&args).output().expect("binary runs");
        assert!(
            out.status.success(),
            "gpumem {extra:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };

    let single = run(&[]);
    assert!(!single.is_empty(), "expected matches");
    assert_eq!(run(&["--shards", "3"]), single, "sharding changed the MEMs");
    assert_eq!(
        run(&["--shards", "3", "--both-strands"]),
        run(&["--both-strands"]),
        "sharding changed the reverse-strand MEMs"
    );

    let out = cli()
        .args(["run", "--shards", "0", &ref_fa, &query_fa])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "--shards 0 must be rejected");
}

/// An 80 kb reference and a query file of two 3 kb reads from it. At
/// L = 25 and ℓs = 8 the CLI's tile spans 36,864 reference bases, so
/// the reference is three tile rows and a query split two ways gives
/// both halves rows.
fn write_two_reads(dir: &std::path::Path) -> (String, String) {
    let reference = GenomeModel::mammalian().generate(80_000, 4500);
    let model = MutationModel {
        sub_rate: 0.03,
        indel_rate: 0.003,
    };
    let codes = reference.to_codes();
    let records: Vec<FastaRecord> = (0..2u64)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(4501 + i);
            let start = 5_000 + 40_000 * i as usize;
            FastaRecord {
                header: format!("read{i}"),
                seq: PackedSeq::from_codes(&model.apply(&codes[start..start + 3_000], &mut rng)),
            }
        })
        .collect();
    let write = |name: &str, records: &[FastaRecord]| -> String {
        let path = dir.join(name);
        let mut file = std::fs::File::create(&path).unwrap();
        write_fasta(&mut file, records).unwrap();
        file.flush().unwrap();
        path.to_str().unwrap().to_string()
    };
    let ref_fa = write(
        "ref.fa",
        &[FastaRecord {
            header: "ref".into(),
            seq: reference,
        }],
    );
    (ref_fa, write("queries.fa", &records))
}

/// The `Run` events of a Chrome trace file, in file order, as
/// `(name, start µs, end µs, track)`.
fn run_events(path: &std::path::Path) -> Vec<(String, f64, f64, u64)> {
    let trace = serde::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    trace
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("cat").and_then(|v| v.as_str()) == Some("Run"))
        .map(|e| {
            let number = |key: &str| e.get(key).and_then(|v| v.as_f64()).expect(key);
            let name = e.get("name").and_then(|v| v.as_str()).expect("name");
            let ts = number("ts");
            (
                name.to_string(),
                ts,
                ts + number("dur"),
                number("tid") as u64,
            )
        })
        .collect()
}

#[test]
fn traced_shards_keep_tracks_of_their_own() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-trace-shards");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_two_reads(&dir);
    let trace_path = dir.join("trace.json");
    let out = cli()
        .args(["run", "--min-len", "25", "--seed-len", "8", "--shards", "2"])
        .args(["--query-threads", "2", "--trace"])
        .arg(&trace_path)
        .args([&ref_fa, &query_fa])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "traced sharded run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty(), "expected matches");

    // A sharded request runs on the workers like any other.
    let mut worker_tids: Vec<u64> = run_events(&trace_path)
        .into_iter()
        .filter(|(name, ..)| name.starts_with("worker "))
        .map(|(.., tid)| tid)
        .collect();
    assert_eq!(worker_tids.len(), 4, "two workers of each of two queries");
    worker_tids.sort_unstable();
    worker_tids.dedup();
    assert_eq!(
        worker_tids.len(),
        4,
        "workers share a track: {worker_tids:?}"
    );
}

#[test]
fn traced_requests_share_one_clock() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-trace-clock");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_two_reads(&dir);
    let trace_path = dir.join("trace.json");
    let out = cli()
        .args(["run", "--min-len", "25", "--seed-len", "8"])
        .args(["--query-threads", "2", "--trace"])
        .arg(&trace_path)
        .args([&ref_fa, &query_fa])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "traced run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Each query: its two workers' rows, then the calling thread's merge.
    let runs = run_events(&trace_path);
    let names: Vec<&str> = runs.iter().map(|(name, ..)| name.as_str()).collect();
    assert_eq!(
        names,
        ["worker 0", "worker 1", "query", "worker 0", "worker 1", "query"]
    );
    // Float microseconds: allow a nanosecond of rounding.
    let slack = 1e-3;
    for request in runs.chunks(3) {
        let query_start = request[2].1;
        for (name, _, end, _) in &request[..2] {
            assert!(
                *end <= query_start + slack,
                "{name} ends at {end} µs, after its query span starts at {query_start} µs"
            );
        }
    }
    let first_end = runs[2].2;
    let second_start = runs[3..].iter().map(|run| run.1).fold(f64::MAX, f64::min);
    assert!(
        second_start + slack >= first_end,
        "query 1 starts at {second_start} µs, before query 0 ends at {first_end} µs"
    );
}

#[test]
fn registry_subcommands_round_trip() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-registry");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, _) = write_pair(&dir);
    let second = GenomeModel::mammalian().generate(6_000, 777);
    let second_fa = {
        let path = dir.join("ref2.fa");
        let mut file = std::fs::File::create(&path).unwrap();
        write_fasta(
            &mut file,
            &[FastaRecord {
                header: "ref2".into(),
                seq: second,
            }],
        )
        .unwrap();
        file.flush().unwrap();
        path.to_str().unwrap().to_string()
    };
    let handles = dir.join("handles.tsv");
    let _ = std::fs::remove_file(&handles);
    let handles = handles.to_str().unwrap();

    let add = |name: &str, fasta: &str| {
        let out = cli()
            .args(["registry", "add", handles, name, fasta, "--min-len", "25"])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "registry add {name} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains(&format!("registered {name}:")), "{stdout}");
    };
    add("chr1", &ref_fa);
    add("chr2", &second_fa);

    // A duplicate name is refused without clobbering the file.
    let out = cli()
        .args([
            "registry",
            "add",
            handles,
            "chr1",
            &ref_fa,
            "--min-len",
            "25",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("already registered"), "{err}");

    let out = cli()
        .args(["registry", "list", handles])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let listing = String::from_utf8(out.stdout).unwrap();
    assert!(listing.contains("handle"), "missing header: {listing}");
    assert!(
        listing.contains("chr1") && listing.contains("chr2"),
        "{listing}"
    );

    // Under a tiny budget, warming both references twice must churn.
    let out = cli()
        .args([
            "registry",
            "evict-stats",
            handles,
            "--budget",
            "4096",
            "--rounds",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "evict-stats failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stats = String::from_utf8(out.stdout).unwrap();
    for key in [
        "\"references\"",
        "\"evictions\"",
        "\"resident_bytes\"",
        "\"hits\"",
    ] {
        assert!(stats.contains(key), "missing {key} in {stats}");
    }
    let evictions: u64 = stats
        .lines()
        .find(|l| l.contains("\"evictions\""))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().trim_end_matches(',').parse().unwrap())
        .unwrap();
    assert!(
        evictions > 0,
        "expected churn under a 4 KiB budget: {stats}"
    );
}

/// Runs the CLI with `args`, expecting the configuration builder's
/// structured refusal of an out-of-range ℓs: exit status 1 with its
/// message and nothing on stdout, not a panic (status 101). A zero ℓs
/// never gets that far: it is a usage error (see
/// `every_subcommand_holds_to_the_usage_contract`).
fn refuse_seed_len(args: &[&str], seed_len: usize) {
    let out = cli().args(args).output().expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
    assert!(!err.contains("panicked"), "{args:?}: {err}");
    assert!(out.stdout.is_empty(), "{args:?} printed output");
    assert!(
        err.contains(&format!("seed length {seed_len} out of range 1..=15")),
        "{args:?}: {err}"
    );
}

#[test]
fn registry_evict_stats_warms_a_reference_shorter_than_a_seed() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-registry-short");
    std::fs::create_dir_all(&dir).unwrap();
    let short = dir.join("short.fa");
    std::fs::write(&short, ">short\nACGTA\n").unwrap();
    let handles = dir.join("handles.tsv");
    let _ = std::fs::remove_file(&handles);
    let handles = handles.to_str().unwrap();
    let run = |args: &[&str]| {
        let out = cli().args(args).output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        String::from_utf8(out.stdout).unwrap()
    };
    let short = short.to_str().unwrap();
    let args = ["registry", "add", handles, "x", short, "--min-len", "20"];
    run(&[&args[..], &["--seed-len", "8"]].concat());
    let stats = run(&["registry", "evict-stats", handles]);
    assert!(stats.contains("\"evictions\": 0"), "{stats}");
}

#[test]
fn registry_add_refuses_an_out_of_range_seed_len() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-registry-seed-len");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, _) = write_pair(&dir);
    let handles = dir.join("handles.tsv");
    let _ = std::fs::remove_file(&handles);
    let handles = handles.to_str().unwrap();
    refuse_seed_len(
        &["registry", "add", handles, "x", &ref_fa, "--seed-len", "16"],
        16,
    );
    assert!(
        std::fs::metadata(handles).is_err(),
        "a refused entry must not be written"
    );
}

#[test]
fn metrics_export_refuses_an_out_of_range_seed_len() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-metrics-seed-len");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);
    refuse_seed_len(
        &[
            "metrics",
            "export",
            "--min-len",
            "20",
            "--seed-len",
            "16",
            &ref_fa,
            &query_fa,
        ],
        16,
    );
}

/// A journal that cannot be written fails `metrics export` with the
/// journal's path and the I/O error (exit 1), and nothing is printed.
/// Skipped where `/dev/full`, whose every write fails, does not exist.
#[test]
fn metrics_export_fails_on_an_unwritable_journal() {
    if !std::path::Path::new("/dev/full").exists() {
        eprintln!("skipped: no /dev/full");
        return;
    }
    let dir = std::env::temp_dir().join("gpumem-cli-test-journal-full");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);
    let out = cli()
        .args(["metrics", "export", "--min-len", "25", "--seed-len", "8"])
        .args(["--journal", "/dev/full", &ref_fa, &query_fa])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.starts_with("error: /dev/full: "), "{err}");
    assert!(out.stdout.is_empty(), "the exposition was printed");
}

/// Every subcommand holds to one usage contract. A usage error exits 2
/// with `error:` and the usage, before any file is read: the paths do
/// not exist, so a check the parser missed fails on loading them, with
/// exit status 1, before any thread or worker starts. `--help` exits 0
/// with the usage.
#[test]
fn every_subcommand_holds_to_the_usage_contract() {
    let (r, q, h) = (
        "/nonexistent/ref.fa",
        "/nonexistent/query.fa",
        "/nonexistent/handles.tsv",
    );
    let usage_errors: &[&[&str]] = &[
        // Unknown command or flag.
        &[],
        &["frobnicate", r, q],
        &["registry", "frobnicate", h],
        &["metrics", r, q],
        &["run", "--frobnicate", r, q],
        &["registry", "add", h, "x", r, "--frobnicate"],
        &["registry", "list", h, "--min-len", "20"],
        &["registry", "evict-stats", h, "--seed-len", "8"],
        &["metrics", "export", "--tool", "mummer", r, q],
        &["bench-info", "--frobnicate"],
        // Missing value.
        &["run", r, q, "--min-len"],
        &["registry", "add", h, "x", r, "--seed-len"],
        &["registry", "evict-stats", h, "--budget"],
        &["metrics", "export", r, q, "--journal"],
        &["bench-info", "--min-len"],
        // Non-numeric count.
        &["run", "--threads", "four", r, q],
        &["registry", "add", h, "x", r, "--min-len", "2O"],
        &["registry", "evict-stats", h, "--rounds", "-1"],
        &["metrics", "export", "--shards", "1.5", r, q],
        &["bench-info", "--min-len", "x"],
        // Zero count.
        &["run", "--threads", "0", r, q],
        &["run", "--seed-len", "0", r, q],
        &["registry", "add", h, "x", r, "--seed-len", "0"],
        &["registry", "evict-stats", h, "--budget", "0"],
        &["registry", "evict-stats", h, "--rounds", "0"],
        &["metrics", "export", "--seed-len", "0", r, q],
        &["metrics", "export", "--query-threads", "0", r, q],
        &["bench-info", "--min-len", "0"],
        // Over the limit.
        &["run", "--threads", "257", r, q],
        &["run", "--query-threads", "257", r, q],
        &["run", "--shards", "257", r, q],
        &["metrics", "export", "--query-threads", "257", r, q],
        &["metrics", "export", "--shards", "257", r, q],
        &["run", "--min-len", "4294967296", r, q],
        // Unknown choice.
        &["run", "--tool", "blast", r, q],
        &["metrics", "export", "--format", "xml", r, q],
        // Wrong positional count.
        &["run", r],
        &["run", r, q, q],
        &["registry", "add", h, "x"],
        &["registry", "list"],
        &["registry", "list", h, h],
        &["registry", "evict-stats"],
        &["metrics", "export", r],
        &["bench-info", "extra"],
    ];
    for args in usage_errors {
        let out = cli().args(*args).output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert!(err.contains("usage: gpumem-cli run"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
    }

    // The limits are inclusive: these get as far as loading the files.
    for args in [
        &["run", "--threads", "256", r, q][..],
        &["run", "--query-threads", "256", r, q],
        &["metrics", "export", "--shards", "256", r, q],
    ] {
        let out = cli().args(args).output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(&format!("error: {r}: ")), "{args:?}: {err}");
    }

    for args in [
        &["--help"][..],
        &["-h"],
        &["run", "--help"],
        &["run", "--tool", "blast", "-h"],
        &["registry", "--help"],
        &["registry", "add", "--help"],
        &["registry", "list", "--help"],
        &["registry", "evict-stats", h, "--help"],
        &["metrics", "--help"],
        &["metrics", "export", "--help"],
        &["bench-info", "--help"],
    ] {
        let out = cli().args(args).output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        assert!(err.starts_with("usage: gpumem-cli run"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
    }
}

#[test]
fn bench_info_prints_device_catalog() {
    let out = cli()
        .args(["bench-info", "--min-len", "25"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "bench-info failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    for expected in [
        "Tesla K20c",
        "Tesla K40",
        "test-tiny",
        "tile_len",
        "working set",
    ] {
        assert!(stdout.contains(expected), "missing {expected}: {stdout}");
    }
}

#[test]
fn both_strands_superset_and_strand_column() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-strands");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);

    let run = |extra: &[&str]| -> Vec<String> {
        let mut args = vec!["run", "--tool", "mummer", "--min-len", "25"];
        args.extend_from_slice(extra);
        args.push(ref_fa.as_str());
        args.push(query_fa.as_str());
        let out = cli().args(&args).output().unwrap();
        assert!(out.status.success());
        String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    };
    let forward = run(&[]);
    let both = run(&["--both-strands"]);
    assert!(both.len() >= forward.len());
    assert!(forward.iter().all(|l| l.ends_with('+')));
    for line in &forward {
        assert!(both.contains(line));
    }
}
