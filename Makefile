# Developer entry points.  `make check` is the tier-1 gate: build,
# unit tests, and a CLI smoke test asserting that the observability
# output stays parseable JSONL.

.PHONY: all build test check lint bench bench-quick soak soak-telemetry \
  soak-scenario clean

all: build

build:
	dune build

test:
	dune runtest

check: build test
	dune exec bin/lmc_cli.exe -- check -p paxos-buggy -c lmc-gen \
	  --metrics-out /tmp/m.jsonl --record /tmp/rec.jsonl > /dev/null; \
	  test $$? -le 1
	dune exec bin/jsonl_check.exe -- /tmp/m.jsonl /tmp/rec.jsonl
	dune exec bin/lmc_cli.exe -- replay /tmp/rec.jsonl > /dev/null
	dune exec bin/lmc_cli.exe -- report /tmp/rec.jsonl > /dev/null
	dune exec bin/lmc_cli.exe -- check -p 2pc-buggy -c lmc-gen \
	  --record /tmp/ring.jsonl --record-ring 8 > /dev/null; \
	  test $$? -le 1
	dune exec bin/lmc_cli.exe -- replay /tmp/ring.jsonl > /dev/null
	dune exec bin/jsonl_check.exe -- /tmp/ring.jsonl
	@echo "check: OK"

# Static-analysis gate: protocol sanitizers over every bundled instance
# (fixtures included), reconciled against the checked-in allowlist; the
# lint.v1 stream must itself validate.
lint: build
	dune exec bin/lmc_cli.exe -- lint --all --out lint.jsonl \
	  --allow lint_allow.jsonl
	dune exec bin/jsonl_check.exe -- lint.jsonl

# Robustness soak: supervised online hunts under three fault plans ×
# two protocols, bounded in simulated time.  Exit 0 (clean run) and
# exit 1 (violation found and witnessed) both pass — the gate is that
# the supervised loop survives every plan and each run leaves a
# flight-recorder artifact in soak/ that still validates as JSONL
# (CI uploads the artifacts).
SOAK_PLAN1 = crash:node=0,at=20,recover=35;crash:node=1,at=60,recover=80
SOAK_PLAN2 = dup:p=0.1;reorder:p=0.3,window=2;corrupt:p=0.02
SOAK_PLAN3 = part:from=10,until=40,cut=0+1/2;dup:p=0.05

soak: build
	mkdir -p soak
	for p in pb-store-crash paxos-buggy; do \
	  i=0; \
	  for plan in '$(SOAK_PLAN1)' '$(SOAK_PLAN2)' '$(SOAK_PLAN3)'; do \
	    i=$$((i+1)); \
	    echo "soak: $$p plan$$i [$$plan]"; \
	    dune exec bin/lmc_cli.exe -- hunt -p $$p --faults "$$plan" \
	      --interval 5 --max-live 120 --budget 2 --crash-budget 1 \
	      --restart-budget-ms 4000 --max-retries 2 \
	      --record soak/$$p-plan$$i.jsonl > /dev/null; \
	    s=$$?; test $$s -le 1 || exit $$s; \
	  done; \
	done
	$(MAKE) soak-resume
	$(MAKE) soak-telemetry
	$(MAKE) soak-scenario
	dune exec bin/jsonl_check.exe -- soak/*.jsonl
	@echo "soak: OK"

# Scenario-suite leg: the bundled churn/partition/load scenarios plus
# the planted-SWIM hunts, run once.  `--all` exits non-zero on any
# verdict mismatch; the scenario.v1 stream lands in soak/ and
# validates with the other artifacts.
soak-scenario: build
	mkdir -p soak
	dune exec bin/lmc_cli.exe -- scenario --all \
	  --out soak/scenario.jsonl > soak/scenario.out
	@echo "soak-scenario: OK"

# Live-telemetry leg: one supervised hunt runs with the exporter up
# (--serve) plus the profiler and timeseries ring enabled.  While the
# hunt is live we scrape /healthz (must report "status":"ok"); once the
# final metrics dump lands the run lingers (--serve-linger) so we can
# take a final /metrics scrape and require that the scraped
# lmc_system_states_created_total equals lmc.system_states_created in
# the --metrics-out dump — the exporter serves the same registry the
# dump is written from, so any drift is a bug.  The flamegraph,
# speedscope, timeseries, and recorder files land in soak/ for the CI
# artifact upload; the JSONL ones are validated by the soak gate above.
SOAK_TELEMETRY_PORT = 19891

soak-telemetry: build
	mkdir -p soak
	rm -f soak/telemetry.jsonl soak/telemetry-metrics.jsonl \
	  soak/timeseries.jsonl soak/flamegraph.txt \
	  soak/profile.speedscope.json soak/healthz.json \
	  soak/scrape-mid.txt soak/scrape-final.txt
	dune exec bin/lmc_cli.exe -- hunt -p paxos-buggy \
	  --faults '$(SOAK_PLAN2)' \
	  --interval 5 --max-live 120 --budget 2 --crash-budget 1 \
	  --restart-budget-ms 4000 --max-retries 2 \
	  --record soak/telemetry.jsonl --profile \
	  --flamegraph soak/flamegraph.txt \
	  --speedscope soak/profile.speedscope.json \
	  --timeseries soak/timeseries.jsonl --timeseries-interval 0.5 \
	  --metrics-out soak/telemetry-metrics.jsonl \
	  --serve $(SOAK_TELEMETRY_PORT) --serve-linger 10 \
	  > soak/telemetry.out 2>&1 & \
	pid=$$!; \
	up=0; for i in $$(seq 1 100); do \
	  if curl -sf http://127.0.0.1:$(SOAK_TELEMETRY_PORT)/healthz \
	       > soak/healthz.json 2>/dev/null; then up=1; break; fi; \
	  sleep 0.2; \
	done; \
	if test $$up -ne 1; then \
	  echo "soak-telemetry: exporter never came up"; \
	  cat soak/telemetry.out; kill $$pid 2>/dev/null; exit 1; fi; \
	grep -q '"status":"ok"' soak/healthz.json || exit 1; \
	curl -sf http://127.0.0.1:$(SOAK_TELEMETRY_PORT)/metrics \
	  > soak/scrape-mid.txt 2>/dev/null || true; \
	dumped=0; for i in $$(seq 1 600); do \
	  if test -s soak/telemetry-metrics.jsonl; then dumped=1; break; fi; \
	  if ! kill -0 $$pid 2>/dev/null; then break; fi; \
	  sleep 0.2; \
	done; \
	if test $$dumped -ne 1; then \
	  echo "soak-telemetry: metrics dump never appeared"; \
	  cat soak/telemetry.out; kill $$pid 2>/dev/null; exit 1; fi; \
	curl -sf http://127.0.0.1:$(SOAK_TELEMETRY_PORT)/metrics \
	  > soak/scrape-final.txt; \
	wait $$pid; s=$$?; test $$s -le 1 || exit $$s
	test -s soak/flamegraph.txt
	@want=$$(sed -n \
	  's/.*"metric":"lmc.system_states_created".*"value":\([0-9]*\).*/\1/p' \
	  soak/telemetry-metrics.jsonl | tail -1); \
	got=$$(sed -n 's/^lmc_system_states_created_total \([0-9]*\)$$/\1/p' \
	  soak/scrape-final.txt); \
	echo "soak-telemetry: scraped=$$got dumped=$$want"; \
	test -n "$$want" && test "$$got" = "$$want"
	@echo "soak-telemetry: OK"

# Kill-and-resume legs over the pb-store-crash checkpoint format.  The
# checkpoint directories under soak/ ship with the CI soak artifacts.
#
# Leg A (robustness): SIGKILL a long hunt mid-run, then resume the
# torn checkpoint directory.  The resumed process must warm-start
# (resumed_at is a time, not "cold") and finish cleanly — a kill
# between checkpoint saves loses at most one check interval, never the
# directory.
#
# Leg B (incremental bar): phase 1 hunts with the checker
# under-provisioned (no --crash-budget, so the planted crash-recovery
# bug is unreachable) and stops inside the bug's live window (the
# plan's first crash at t=20 destroys the evidence); phase 2 resumes
# with crash exploration enabled and must find the bug (exit 1) from a
# warm start, and the resumed hunt's cumulative states-explored must
# stay below the sum of two cold runs of the same two configurations.
SOAK_RESUME = _build/default/bin/lmc_cli.exe hunt -p pb-store-crash \
  --faults '$(SOAK_PLAN1)' --interval 5 --budget 2

soak-resume: build
	rm -rf soak/store soak/store-kill soak/store-cold1 soak/store-cold2
	mkdir -p soak
	$(SOAK_RESUME) --max-live 30000 --store soak/store-kill \
	  > soak/resume-kill.out 2>&1 & \
	pid=$$!; sleep 1; kill -9 $$pid 2>/dev/null || true; \
	wait $$pid 2>/dev/null; true
	test -f soak/store-kill/meta.bin
	$(SOAK_RESUME) --max-live 30000 --store soak/store-kill --resume \
	  > soak/resume-killed-resumed.out 2>&1; test $$? -eq 0
	grep 'resumed_at=' soak/resume-killed-resumed.out; \
	grep 'resumed_at=' soak/resume-killed-resumed.out \
	  | grep -qv 'resumed_at=cold'
	$(SOAK_RESUME) --max-live 10 --store soak/store \
	  > soak/resume-phase1.out 2>&1; test $$? -eq 0
	$(SOAK_RESUME) --max-live 120 --crash-budget 1 --store soak/store \
	  --resume --record soak/resume-phase2.jsonl \
	  > soak/resume-phase2.out 2>&1; \
	s=$$?; test $$s -eq 1
	grep 'resumed_at=' soak/resume-phase2.out; \
	grep 'resumed_at=' soak/resume-phase2.out | grep -qv 'resumed_at=cold'
	grep -q '"schema":"store.v2"' soak/resume-phase2.jsonl
	$(SOAK_RESUME) --max-live 10 --store soak/store-cold1 \
	  > soak/resume-cold1.out 2>&1; test $$? -eq 0
	$(SOAK_RESUME) --max-live 120 --crash-budget 1 --store soak/store-cold2 \
	  > soak/resume-cold2.out 2>&1; test $$? -eq 1
	@combined=$$(sed -n 's/.*states_explored=\([0-9]*\).*/\1/p' \
	  soak/resume-phase2.out); \
	cold1=$$(sed -n 's/.*states_explored=\([0-9]*\).*/\1/p' \
	  soak/resume-cold1.out); \
	cold2=$$(sed -n 's/.*states_explored=\([0-9]*\).*/\1/p' \
	  soak/resume-cold2.out); \
	echo "soak-resume: combined=$$combined cold1=$$cold1 cold2=$$cold2"; \
	test "$$combined" -lt $$((cold1 + cold2))
	@echo "soak-resume: OK"

bench:
	dune exec bench/main.exe

# CI-sized pass over the two timing bars (used by the workflow in
# .github/workflows/ci.yml): full-telemetry overhead <= 5% and inert
# churn >= 0.9x the empty plan's events/s.  The bench exits 1 when a
# bar fails; the log is kept for the CI artifact upload.
bench-quick:
	dune exec bench/main.exe -- --quick --only overhead \
	  --only sim-overhead > bench-quick.log; \
	  s=$$?; cat bench-quick.log; exit $$s

clean:
	dune clean
