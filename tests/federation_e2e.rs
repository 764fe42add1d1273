//! Federation end-to-end: the Figure 1 architecture with the wrapper
//! boundary stretched over real TCP sockets. Three source-servers serve
//! the paper sources; a mediator integrates them through
//! `RemoteWrapper`s and must produce answers byte-identical to the
//! in-process mediator over the same corpus — and degrade to partial
//! answers, not errors, when a source goes away.

use std::time::Duration;

use annoda::{render_integrated_view, Annoda, QuestionBuilder};
use annoda_federation::{
    BreakerConfig, BreakerState, ClientConfig, FaultConfig, ServerConfig, SourceServer,
};
use annoda_mediator::FailureKind;
use annoda_sources::{Corpus, CorpusConfig};
use annoda_wrap::{GoWrapper, LocusLinkWrapper, OmimWrapper};

fn corpus() -> Corpus {
    Corpus::generate(CorpusConfig::tiny(42))
}

/// Three source-servers over one corpus, on ephemeral ports.
fn spawn_paper_servers(c: &Corpus, fault: FaultConfig) -> Vec<SourceServer> {
    let config = ServerConfig {
        fault,
        ..ServerConfig::default()
    };
    vec![
        SourceServer::spawn(
            Box::new(LocusLinkWrapper::new(c.locuslink.clone())),
            "127.0.0.1:0",
            config,
        )
        .expect("bind LocusLink"),
        SourceServer::spawn(
            Box::new(GoWrapper::new(c.go.clone())),
            "127.0.0.1:0",
            config,
        )
        .expect("bind GO"),
        SourceServer::spawn(
            Box::new(OmimWrapper::new(c.omim.clone())),
            "127.0.0.1:0",
            config,
        )
        .expect("bind OMIM"),
    ]
}

fn fast_client() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        request_timeout: Duration::from_secs(5),
        retries: 1,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        ..ClientConfig::default()
    }
}

/// An ANNODA instance whose three sources live behind the servers.
fn remote_annoda(servers: &[SourceServer], config: ClientConfig) -> Annoda {
    let mut annoda = Annoda::new();
    for server in servers {
        annoda
            .plug_remote_with(&server.addr().to_string(), config)
            .expect("plug remote source");
    }
    annoda
}

#[test]
fn figure5_over_the_wire_matches_in_process() {
    let c = corpus();
    let servers = spawn_paper_servers(&c, FaultConfig::none());
    let remote = remote_annoda(&servers, fast_client());
    let (local, _) = Annoda::over_sources(c.locuslink.clone(), c.go.clone(), c.omim.clone());

    // Same registry: same sources, in the same order.
    let names = |a: &Annoda| -> Vec<String> {
        a.registry()
            .sources()
            .iter()
            .map(|d| d.name.clone())
            .collect()
    };
    assert_eq!(names(&remote), names(&local));

    // The Figure 5 question: genes with GO function annotation and no
    // OMIM disease entry.
    let question = QuestionBuilder::new()
        .require_go_function()
        .exclude_omim_disease()
        .build();
    let remote_answer = remote.ask(&question).expect("remote answer");
    let local_answer = local.ask(&question).expect("local answer");

    // Byte-identical integrated view (Figure 5b) over the wire.
    assert_eq!(
        render_integrated_view(&remote_answer.fused.genes),
        render_integrated_view(&local_answer.fused.genes)
    );
    // Identical virtual accounting: the remote path adds measured
    // wall-clock, never simulated cost.
    assert_eq!(remote_answer.cost.requests, local_answer.cost.requests);
    assert_eq!(remote_answer.cost.records, local_answer.cost.records);
    assert_eq!(remote_answer.cost.virtual_us, local_answer.cost.virtual_us);
    assert!(remote_answer.cost.wall_us > 0, "remote wall-clock is real");
    assert!(remote_answer.wall_path_us > 0);
    assert!(remote_answer.fused.missing_sources.is_empty());
    assert!(remote_answer.failed_sources.is_empty());

    // Every remote source was exercised and stayed healthy.
    let stats = remote.federation_stats();
    assert_eq!(stats.len(), 3);
    for (name, snap) in &stats {
        assert!(snap.requests > 0, "{name} saw no requests");
        assert_eq!(snap.breaker, BreakerState::Closed, "{name} breaker");
        assert_eq!(snap.transport_errors, 0, "{name} transport errors");
    }
}

#[test]
fn killed_server_degrades_to_a_flagged_partial_answer() {
    let c = corpus();
    let mut servers = spawn_paper_servers(&c, FaultConfig::none());
    let mut remote = remote_annoda(&servers, fast_client());
    remote.registry_mut().mediator_mut().partial_results = true;

    // Kill OMIM (the last server) after plug-in succeeded.
    let omim = servers.last_mut().expect("three servers");
    let omim_name = omim.name().to_string();
    omim.shutdown();
    servers.pop();

    // The exclusion clause forces a subquery against the dead OMIM.
    let question = QuestionBuilder::new()
        .require_go_function()
        .exclude_omim_disease()
        .build();
    let answer = remote.ask(&question).expect("partial answer, not error");

    // The loss is surfaced in the fused answer, not silently dropped.
    assert_eq!(answer.fused.missing_sources, vec![omim_name.clone()]);
    let failure = answer
        .failed_sources
        .iter()
        .find(|f| f.source == omim_name)
        .expect("OMIM failure recorded");
    assert_eq!(failure.kind, FailureKind::Transport);
    // The surviving sources still answered.
    assert!(!answer.fused.genes.is_empty());
    assert!(answer
        .per_source_cost
        .iter()
        .any(|(src, _)| src == "LocusLink"));
}

#[test]
fn breaker_trips_fast_fails_and_recovers_after_cooldown() {
    let c = corpus();
    let servers = spawn_paper_servers(
        &c,
        // Each server kills its first two connections at accept: the
        // plug-in dials are retried transparently (2 retries per
        // request cover them) and every later connection is clean.
        FaultConfig {
            drop_first: 2,
            drop_every: 0,
            ..FaultConfig::none()
        },
    );
    let config = ClientConfig {
        retries: 2,
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(40),
        },
        ..fast_client()
    };
    let mut servers = servers;
    let mut remote = remote_annoda(&servers, config);
    remote.registry_mut().mediator_mut().partial_results = true;
    let omim_stats = |a: &Annoda| {
        a.federation_stats()
            .into_iter()
            .find(|(name, _)| name == "OMIM")
            .expect("OMIM is remote")
            .1
    };

    // Under the drop-every-3 schedule answers keep flowing: dropped
    // dials are retried transparently and the breakers stay closed.
    let question = QuestionBuilder::new()
        .require_go_function()
        .exclude_omim_disease()
        .build();
    for _ in 0..3 {
        let answer = remote.ask(&question).expect("answers despite drops");
        assert!(answer.fused.missing_sources.is_empty());
    }
    let retried: u64 = remote
        .federation_stats()
        .iter()
        .map(|(_, s)| s.retries)
        .sum();
    assert!(retried > 0, "the fault schedule forced retries");
    assert_eq!(omim_stats(&remote).breaker, BreakerState::Closed);

    // Take OMIM down for good: two failed asks trip its breaker while
    // the gene provider keeps the question answerable.
    servers.pop().expect("OMIM server").shutdown();
    for _ in 0..2 {
        let answer = remote.ask(&question).expect("still partial, not error");
        assert_eq!(answer.fused.missing_sources, vec!["OMIM".to_string()]);
    }
    assert_eq!(omim_stats(&remote).breaker, BreakerState::Open);

    // While open, asks fast-fail locally instead of re-dialing.
    let before = omim_stats(&remote);
    let answer = remote.ask(&question).expect("fast-failed partial");
    assert_eq!(answer.fused.missing_sources, vec!["OMIM".to_string()]);
    let during = omim_stats(&remote);
    assert_eq!(
        during.transport_errors, before.transport_errors,
        "an open breaker never touches the wire"
    );
    assert!(during.fast_failures > before.fast_failures);

    // After the cooldown the breaker probes the wire again (and
    // re-opens, since the server is gone for good).
    std::thread::sleep(Duration::from_millis(50));
    let _ = remote.ask(&question).expect("probe round");
    let after = omim_stats(&remote);
    assert!(
        after.transport_errors > during.transport_errors,
        "the half-open probe reached the wire"
    );
    assert_eq!(after.breaker, BreakerState::Open);
}
