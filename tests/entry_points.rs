//! Entry-point parity: one plain schedule request answered by a daemon
//! directly and through a router carries the same payload, and that
//! payload's runtime is what the in-process pipeline computes
//! (`Pipeline::compile` followed by `try_evaluate`).

use balanced_scheduling::analyze::json::{self, Json};
use balanced_scheduling::ir::Function;
use balanced_scheduling::memsim::{LatencyModel, MemorySystem};
use balanced_scheduling::pipeline::{try_evaluate, EvalConfig, Pipeline, SchedulerChoice};
use balanced_scheduling::serve::protocol::DEFAULT_RUNS;
use balanced_scheduling::serve::{
    blank_service_us, Client, Router, RouterConfig, Server, ServerConfig,
};
use balanced_scheduling::workload::{lower_kernel, parse_program, perfect_club};

fn server() -> Server {
    Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 32,
        ..ServerConfig::default()
    })
    .expect("start server")
}

/// The kernel files under `kernels/`, in name order, with the function
/// the daemon lowers each to.
fn kernel_files() -> Vec<(String, Function)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/kernels");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("kernels/")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "bsk"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let src = std::fs::read_to_string(&path).expect("kernel file");
            let blocks: Vec<_> = parse_program(&src)
                .expect("kernel parses")
                .iter()
                .map(|k| lower_kernel(&k.kernel, k.frequency))
                .collect();
            let name = blocks[0].name().to_owned();
            (path.display().to_string(), Function::new(name, blocks))
        })
        .collect()
}

/// One response line with the fields that may differ between entry
/// points removed: the echoed `id`, the cache flag and the wall-clock
/// service time.
fn normalized(line: &str, id: &str) -> String {
    let line = line.replacen(&format!("\"id\":{},", json::string(id)), "", 1);
    let line = line
        .replacen("\"cached\":false,", "", 1)
        .replacen("\"cached\":true,", "", 1);
    blank_service_us(&line).replacen(",\"service_us\":0", "", 1)
}

#[test]
fn direct_and_routed_payloads_match_the_in_process_pipeline() {
    let direct = server();
    let shards = [server(), server()];
    let router = Router::start(RouterConfig {
        shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
        ..RouterConfig::default()
    })
    .expect("start router");
    let mut to_direct = Client::connect(direct.local_addr()).expect("connect daemon");
    let mut to_router = Client::connect(router.local_addr()).expect("connect router");

    // Every stand-in by name and every kernel file by path, each under
    // one of the paper's systems in turn.
    let mut requests: Vec<(String, Function)> = perfect_club()
        .iter()
        .map(|b| {
            let source = format!("\"benchmark\":{}", json::string(b.name()));
            (source, b.function().clone())
        })
        .collect();
    requests.extend(
        kernel_files()
            .into_iter()
            .map(|(path, function)| (format!("\"kernel_path\":{}", json::string(&path)), function)),
    );
    let systems = MemorySystem::paper_systems();
    let pipeline = Pipeline::default();
    let eval = EvalConfig {
        runs: DEFAULT_RUNS,
        ..EvalConfig::default()
    };
    for (i, (source, function)) in requests.iter().enumerate() {
        let system = systems[i % systems.len()];
        let request = |id: &str| {
            format!(
                "{{\"op\":\"schedule\",\"id\":{},{source},\"system\":{}}}",
                json::string(id),
                json::string(&system.name())
            )
        };
        let (direct_id, routed_id) = (format!("direct-{i}"), format!("routed-{i}"));
        to_direct.send(&request(&direct_id)).expect("send direct");
        let direct_line = to_direct.recv_line().expect("recv").expect("a line");
        to_router.send(&request(&routed_id)).expect("send routed");
        let routed_line = to_router.recv_line().expect("recv").expect("a line");

        let payload = normalized(&direct_line, &direct_id);
        assert!(
            payload.contains("\"status\":\"ok\""),
            "{source}: {direct_line}"
        );
        assert_eq!(
            payload,
            normalized(&routed_line, &routed_id),
            "{source}: direct and routed payloads differ"
        );

        let compiled = pipeline
            .compile(function, &SchedulerChoice::balanced())
            .expect("compiles");
        let expected = try_evaluate(&compiled, &system, &eval).expect("evaluates");
        let served = json::parse(&direct_line)
            .as_ref()
            .and_then(|v| v.get("eval"))
            .and_then(|e| e.get("mean_runtime"))
            .and_then(Json::as_f64)
            .expect("eval.mean_runtime");
        assert_eq!(
            served.to_bits(),
            expected.mean_runtime.to_bits(),
            "{source} under {}: served {served}, in-process {}",
            system.name(),
            expected.mean_runtime
        );
    }

    router.begin_shutdown();
    router.join();
    for s in shards.into_iter().chain([direct]) {
        s.begin_shutdown();
        s.join();
    }
}
