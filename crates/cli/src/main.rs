//! `pmerge` — command-line front end to the `prefetchmerge` reproduction
//! of Pai & Varman (ICDE 1992).
//!
//! ```text
//! pmerge simulate --runs 25 --disks 5 --strategy inter --n 10 --cache 1200
//! pmerge analyze  --runs 25 --disks 5 --n 10
//! pmerge sweep    --param n --from 1 --to 30 --runs 25 --disks 5 --strategy inter
//! ```

mod args;
mod batch;
mod commands;
mod exec;
mod metrics;
mod plan;
mod service;

use args::Args;
use pm_core::PmError;

const USAGE: &str = "\
pmerge — multi-disk prefetching simulator for external mergesort
(reproduction of Pai & Varman, ICDE 1992)

USAGE:
    pmerge <COMMAND> [OPTIONS]

COMMANDS:
    simulate   Run one merge-phase simulation and print the report
    analyze    Print the paper's closed-form predictions for a scenario
    sweep      Sweep one parameter and print the measured curve
    batch      Run every scenario in a file (--file <path>); lines are
               'name: key=value ...' with the simulate options
    trace      Run a scenario with trial 1 traced and export the event
               stream (Chrome trace JSON, CSV, or ASCII Gantt)
    validate   Run the standing validation suite (T1/T2 tables, Fig. 3.2
               curves) against the paper's closed forms; exits 1 on any
               residual-tolerance breach
    report     Re-render the HTML validation report from a saved
               manifest (--from) without re-running the suite
    exec       Run a real external sort end-to-end on the execution
               engine: generate records, form runs, merge them against
               a pluggable batched I/O queue backend, verify the output, and
               cross-check the engine against the simulator
    plan       Preview a multi-pass merge schedule: per-pass fan-in,
               groups, blocks read, and the simulator's predicted read
               time under the greedy-max and balanced policies
    contend    Simulate N tenant merges contending for shared disks and
               cache under pluggable scheduling (fifo | wfq | priority)
               and cache-partitioning (static | proportional | free)
               policies; prints per-tenant slowdown and fairness
    serve      Admit tenant jobs from a scenario file and execute them
               concurrently on the real-I/O engine through one shared
               device set, verifying each job byte-identical to its
               isolated run

SCENARIO OPTIONS (simulate, sweep):
    --runs <k>          number of sorted runs            [default: 25]
    --blocks <B>        blocks per run                   [default: 1000]
    --disks <D>         number of input disks            [default: 5]
    --strategy <s>      none | intra | inter | adaptive  [default: inter]
    --n <N>             prefetch depth per run           [default: 10]
    --cache <C>         cache capacity in blocks         [default: k*N for
                        none/intra, 4*k*N for inter]
    --sync              synchronized operation (default unsynchronized)
    --cpu-ms <f>        CPU ms to merge one block        [default: 0]
    --admission <a>     all-or-nothing | greedy          [default: all-or-nothing]
    --choice <c>        random | least-held | head-proximity [default: random]
    --cap <b>           per-run held-block cap for prefetch targets (0 = off)
    --layout <l>        concatenated | striped           [default: concatenated]
    --write-disks <W>   model output traffic on W dedicated write disks
    --write-buffer <b>  output buffer blocks             [default: 64]
    --trials <t>        independent trials               [default: 5]
    --seed <s>          master seed                      [default: 1992]

TRACE OPTIONS (plus the scenario options above):
    --trace-out <path>  write the export here; omitting it streams the
                        export to stdout and suppresses the summary
    --trace-format <f>  chrome | csv | gantt             [default: chrome]
    --trace-limit <e>   keep only the last <e> events (ring buffer; 0 = all)

SWEEP OPTIONS:
    --param <p>         n | cache | cpu-ms | disks
    --from <v> --to <v> inclusive range
    --step <v>          step size                        [default: spans ~15 points]

ANALYZE OPTIONS:
    --runs, --disks, --n as above

VALIDATE OPTIONS:
    --quick             thin the sweep curves (~3x fewer points)
    --html <path>       write the self-contained HTML report here
    --manifest-out <p>  write the JSONL run manifest here (byte-identical
                        for every --jobs value; --manifest is an alias)
    --trials <t|auto>   fixed trial count, or adaptive convergence
                        [default: auto]
    --rel-ci <f>        auto: stop once the 95% CI half-width is within
                        this fraction of the mean  [default: 0.02]
    --min-trials <t>    auto: trials to start with [default: 3]
    --max-trials <t>    auto: hard cap per point   [default: 12]
    --jobs <j>          worker threads (0 = all cores) [default: 0]
    --seed <s>          master seed                [default: 1992]
    --trace             attach per-disk trace rollups to the manifest
    --record-env        append the (non-deterministic) host/env record
    --progress          force the live progress line (default: TTY only)
    --tol-eq <f>        two-sided tolerance for eqs. 1-5 [default: 0.02]
    --tol-striped <f>   two-sided tolerance, striped eq4 [default: 0.05]
    --tol-bound <f>     one-sided slack, kBT/D + asymptote [default: 0.005]
    --tol-conc <f>      one-sided slack, urn concurrency [default: 0.10]

REPORT OPTIONS:
    --from <path>       manifest JSONL written by 'validate --manifest-out'
    --html <path>       output file; omitted = stream HTML to stdout

EXEC OPTIONS (strategy flags as above; the run count comes from run
formation, so --runs/--blocks/--trials do not apply):
    --backend <b>       mem | file | file-direct | latency | uring
                        (uring needs --features uring and a kernel with
                        io_uring; falls back to file)   [default: mem]
    --dir <path>        file backends: device directory (kept); default
                        is a temp directory removed afterwards
    --records <n>       records to generate and sort     [default: 50000]
    --memory <m>        run-formation memory, in records [default: 5000]
    --formation <f>     load-sort | replacement          [default: load-sort]
    --rpb <r>           records per on-device block [default: 40; 32 on
                        O_DIRECT backends, whose blocks must align to 512]
    --jobs <j>          I/O worker threads (0 = one per disk) [default: 0]
    --queue-depth <q>   per-disk I/O queue depth (0 = the scenario's
                        prefetch depth)                  [default: 0]
    --time-scale <f>    latency backend: wall-clock seconds per modeled
                        second (small values replay fast) [default: 1.0]
    --out <path>        write the merged records (16-byte LE pairs)
    --trace-out <path>  export the engine's event stream
    --trace-format <f>  chrome | csv | gantt             [default: chrome]
    --manifest-out <p>  write a JSONL manifest (kind \"exec\"): one record
                        single-pass; per-pass records plus a summary when
                        multi-pass
    --tol-exec <f>      latency backend: two-sided tolerance on modeled
                        read time vs the simulator       [default: 0.02]
    --metrics-out <p>   write a metrics export on exit: Prometheus text
                        exposition, or the JSON layer when <p> ends .json
    --metrics-interval <ms>  with --metrics-out: also write numbered
                        snapshot files every <ms> milliseconds
    --fan-in <F>        merge at most F runs per group; plans and runs a
                        multi-pass merge tree when k exceeds F
    --passes <P>        instead of --fan-in: use the smallest fan-in that
                        finishes in P passes
    --plan-policy <p>   greedy-max | balanced            [default: greedy-max]

CONTEND OPTIONS:
    --scenario-file <p> tenant roster JSON: {\"disks\", \"cache_blocks\",
                        \"tenants\": [{name, runs, run_blocks, disks,
                        strategy, n, cache, arrival_ms, priority}]}
    --tenants <n>       instead of a file: synthesize n tenants with
                        heterogeneous prefetch depths and skewed
                        arrival bursts
    --disks <D>         shared disks (overrides the file) [default: 4]
    --cache <C>         shared cache blocks (overrides the file)
                        [default: 24000 synthesized]
    --sched <list>      comma list of fifo | wfq | priority
                        [default: fifo,wfq]
    --cache-policy <l>  comma list of static | proportional | free
                        [default: static]
    --jobs <j>          isolated-profile worker threads (0 = all cores;
                        the report is identical for every value)
    --seed <s>          master seed                      [default: 1992]
    --csv <path>        write the per-tenant sweep as CSV
    --manifest-out <p>  write JSONL manifest (kind \"contend\")
    --metrics-out <p>   write a metrics export (per-disk, per-tenant, and
                        per-strategy families; format as for exec)
    --metrics-interval <ms>  periodic snapshot cadence (as for exec)

SERVE OPTIONS:
    --scenario-file <p> tenant roster JSON as for contend; per-tenant
                        \"records\" and \"memory\" size the workload
    --sched <s>         fifo | wfq | priority            [default: wfq]
    --cache-policy <c>  static | proportional | free     [default: static]
    --rpb <r>           records per on-device block      [default: 20]
    --queue-depth <q>   per-disk I/O queue depth (0 = each tenant's
                        prefetch depth)                  [default: 0]
    --seed <s>          master seed                      [default: 1992]
    --manifest-out <p>  write JSONL manifest: one per-tenant \"exec\"
                        record tagged with its service terms
    --metrics-out <p>   write a metrics export covering the shared run
                        (per-disk and per-tenant families; format as for
                        exec)
    --metrics-interval <ms>  periodic snapshot cadence (as for exec)

PLAN OPTIONS (scenario flags as above; no merge is executed):
    --runs <k>          plan k uniform runs              [default: 25]
    --blocks <B>        blocks per uniform run           [default: 1000]
    --records <n>       instead of --runs: derive the run population from
                        a real run-formation pass (--memory, --formation,
                        --rpb as for exec)
    --fan-in <F>        bound every merge group to F runs
    --passes <P>        instead of --fan-in: bound the tree to P passes
                        (smallest viable fan-in)
    --cache <C>         without --fan-in/--passes: derive the fan-in bound
                        from this cache budget and the strategy
    --plan-policy <p>   greedy-max | balanced | both     [default: both]
    --json              emit the schedule as one JSON object
";

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.command() {
        Some("simulate") => commands::simulate(&args),
        Some("analyze") => commands::analyze(&args),
        Some("sweep") => commands::sweep(&args),
        Some("batch") => commands::run_batch(&args),
        Some("trace") => commands::trace(&args),
        Some("validate") => commands::validate(&args),
        Some("report") => commands::report(&args),
        Some("exec") => exec::exec(&args),
        Some("plan") => plan::plan(&args),
        Some("contend") => service::contend(&args),
        Some("serve") => service::serve(&args),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(PmError::Usage(format!("unknown command '{other}'"))),
    };
    // PmError pins the exit status: 1 for a tolerance breach (the run
    // completed but failed validation), 2 for usage/config/I-O errors.
    if let Err(e) = result {
        eprintln!("error: {e}");
        if e.exit_code() == 2 {
            eprintln!("\nrun 'pmerge help' for usage");
        }
        std::process::exit(e.exit_code());
    }
}
