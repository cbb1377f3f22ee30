# CI and local development run the identical commands: .github/workflows/ci.yml
# invokes these targets and nothing else.

GO ?= go

.PHONY: all build test allocs fuzz bench examples lint lines staticcheck fmt

all: lint build test examples

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Allocation budgets, without the race detector: under -race sync.Pool
# deliberately drops a share of its Puts, so the exact-zero assertions
# (Latency on a stable point, disabled spans, warm simulator runs) relax
# there through internal/race's build-tagged constant; here they are exact.
allocs:
	$(GO) test -run 'Alloc' -count=1 ./internal/... .

# Every Fuzz* target in the module, 10 s each, starting from the seeds
# its test adds (f.Add) and any testdata/fuzz corpus beside it. go test
# takes one package and one target per -fuzz run, hence the loop; a
# failure leaves its input under that package's testdata/fuzz to commit.
fuzz:
	@$(GO) test -list '^Fuzz' ./... | \
	awk '/^Fuzz/ { names[++n] = $$1 } /^ok/ { for (i = 1; i <= n; i++) print $$2, names[i]; n = 0 }' | \
	while read -r pkg target; do \
		echo "fuzz $$pkg $$target"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s "$$pkg" || exit 1; \
	done

# One iteration per benchmark: keeps bench_test.go, the cyclic kernel's
# BenchmarkCyclicKernel (internal/core), the simulator's BenchmarkColdRun
# (internal/sim) and the fat-tree router's BenchmarkNextGroup
# (internal/topology) compiling and running without turning CI into a
# measurement job.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' . ./internal/core ./internal/sim ./internal/topology

# Every program under examples/ runs to completion; a non-zero exit
# fails the target. They are the checked answer to "how do I call this
# from Go", so they must keep building and running against the packages
# they import.
examples:
	@for d in examples/*/; do \
		echo "run $$d"; \
		$(GO) run "./$$d" > /dev/null || exit 1; \
	done

# The door guard (doors_test.go) type-checks the module and the standard
# library it imports; under -race that takes several times longer, so
# make test's -race run skips it and it runs here, without the detector.
lint:
	$(GO) vet ./...
	$(GO) test -run '^TestNoTestOnlyDoors$$' -count=1 .
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@test "$$(grep -rl 'http\.NewRequest' --include='*.go' internal cmd | grep -v '_test\.go$$')" = internal/eval/remote.go || { \
		echo "outbound requests must be built in internal/eval/remote.go only (one fleet transport)"; exit 1; }
	@test -z "$$(git ls-files '*.sh')" || { \
		echo "no shell scripts: end-to-end checks are Go tests (cmd/*/main_test.go), timings live in the bench/ ledger"; exit 1; }
	@! grep -rlE 'bench[-]out|PerSec|_per_sec"|elapsed_sec|elapsed_ms|Elapsed|mine_ms|events/sec|time\.Since\(' --include='*.go' cmd internal/sweep/result.go internal/plan/result.go internal/exp/runall.go | grep -v '_test\.go$$' || { \
		echo "no benchmark-output flags or timing fields: timings are recorded by go run ./bench, not printed by the binaries or carried by sweep and plan results or the reproduction's SUMMARY.txt"; exit 1; }
	@! grep -rlE '\.cache\.(Get|Put)\(' --include='*.go' internal/dispatch internal/serve | grep -v '_test\.go$$' || { \
		echo "one cell path: the cache is fed by sweep.Runner only"; exit 1; }
	@test -z "$$(grep -rlE 'ObserveCell\(|CellObserver|CalibObserved|handleCalib|"calib\.observe"|"/v1/calib"' --include='*.go' internal cmd | grep -v '_test\.go$$' | grep -vx 'internal/calib/calib.go')" && \
	! grep -rl 'WithCalibration' --include='*.go' internal/serve internal/sweep cmd/sweepd | grep -v '_test\.go$$' && \
	! grep -nE '^func \(m \*Map\) (Collect|Summary)\(|"calib\.observe"' internal/calib/calib.go || { \
		echo "no live calibration observer: a calibration map is filled only by calib.Mine over a store (cmd/calib -store, cmd/plan -cache-dir); no runner, shard or span feeds one as cells land, a shard serves no /v1/calib, healthz block or calib_* series, and Map.ObserveCell (internal/calib/calib.go) is the benchmark's door only"; exit 1; }
	@test "$$(grep -rlE 'eval\.NewSimBackend\(|bounds\.New\(' --include='*.go' internal cmd | grep -v '_test\.go$$')" = internal/sweep/run.go || { \
		echo "one built-in stack: analytic+sim+bounds is assembled in internal/sweep/run.go only"; exit 1; }
	@! grep -nE 'analytic\.(New|Must)[A-Za-z]*Model\(|\.NewModel\(' $$(find internal/bounds -name '*.go' ! -name '*_test.go') || { \
		echo "bounds builds no model: internal/bounds composes over the paper model the AnalyticBackend beside it memoizes (PaperModel) and builds none"; exit 1; }
	@test "$$(grep -rnF '.NewModel(' --include='*.go' internal/eval | grep -v '_test\.go:' | cut -d: -f1)" = internal/eval/networks.go && \
	test "$$(grep -rnF '.NewNetwork(' --include='*.go' internal/eval | grep -v '_test\.go:' | cut -d: -f1)" = internal/eval/networks.go && \
	! grep -nE 'map\[Topology\]' internal/eval/analytic.go internal/eval/simbackend.go || { \
		echo "one network per topology per process: non-test internal/eval builds an analytic network (.NewModel) and a simulator topology (.NewNetwork) at one call site each, the process-wide registries in networks.go; neither backend keeps a network map, and every curve's model is a view of the shared network (analytic.Model.View)"; exit 1; }
	@test -z "$$(grep -rlE '# (TYPE|HELP)' --include='*.go' internal cmd | grep -v '_test\.go$$' | grep -v '^internal/obs/')" && \
	test -z "$$(grep -rl 'obs\.NewCounter(' --include='*.go' internal cmd | grep -v '_test\.go$$' | grep -vE '^internal/(sim|analytic|bounds|obs)/')" || { \
		echo "one metrics writer: Prometheus text is rendered by internal/obs only (components implement obs.Collector; obs.NewCounter is for the sim, analytic and bounds libraries)"; exit 1; }
	@test -z "$$(grep -rl 'backends=' --include='*.go' . | grep -v '_test\.go$$')" && \
	! grep -rnE '^func \([^)]*\) CacheTag\(' --include='*.go' . || { \
		echo "one key space: a cache line is Scenario.Key, never prefixed (a runner with a custom backend list is not cached); an old line behind a backends= salt is no cell's key, so eval.SplitKey refuses it and replay drops it; no CacheTag is declared"; exit 1; }
	@! grep -nE '(\.Backends|WithBackends\()' $$(find internal/dispatch -name '*.go' ! -name '*_test.go') && \
	! grep -nE '^func \([a-z]* ?\*?RemoteBackend\) Name\(' $$(find internal/eval -name '*.go' ! -name '*_test.go') || { \
		echo "a fleet is a Scheduler: a fleet reaches a sweep.Runner only as its Scheduler (internal/dispatch sets no Backends), and eval.RemoteBackend is a transport, not an Evaluator (it declares no Name)"; exit 1; }
	@test -z "$$(grep -rlE '"(family| (size|k|flits|policy|frac|load|variant|sim|warmup|measure|seed|drain|prec|reps|workload|bounds))=' --include='*.go' . | grep -v '_test\.go$$' | grep -vx -e ./internal/eval/scenario.go -e ./internal/eval/parsekey.go)" && \
	test -z "$$(grep -rl 'eval\.ParseKey(' --include='*.go' . | grep -v '_test\.go$$' | grep -v '^\./internal/calib/')" || { \
		echo "one key grammar: the key's field literals appear only in internal/eval/scenario.go (appendKey writes them) and parsekey.go (ParseKey reads them back), and eval.ParseKey is called from internal/calib only"; exit 1; }
	@test "$$(grep -rl 'NewBatchBackend(' --include='*.go' internal cmd | grep -v '_test\.go$$')" = internal/eval/remote.go && \
	test -z "$$(grep -rl 'eval\.NewRemoteBackend(' --include='*.go' internal cmd examples | grep -v '_test\.go$$' | grep -vx internal/dispatch/dispatch.go)" || { \
		echo "one fleet door: grids reach a fleet through internal/dispatch (the fleet client is built in internal/dispatch/dispatch.go only; NewBatchBackend is a deprecated alias for the frozen bench/)"; exit 1; }
	@test -z "$$(grep -rl 'http\.Client' --include='*.go' internal/eval internal/dispatch | grep -v '_test\.go$$')" || { \
		echo "one deadline rule: the fleet transport sends each request as one RoundTrip on an http.RoundTripper (WithTransport) and bounds it itself, a single-shot request at 30 s and a stream by the idle watchdog, under the request context; no non-test file in internal/eval or internal/dispatch names http.Client, whose Timeout would be a second rule"; exit 1; }
	@test -z "$$(grep -rlE '"/v1/batch"|handleBatch|ListGrid|callBatch|BatchItem' --include='*.go' internal cmd | grep -v '_test\.go$$')" || { \
		echo "one list route: a shard answers a list of cells only as a grid range, /v1/sweep/part (eval.PartItem lines, Runner.EvaluateList on the shard's own pool); there is no /v1/batch, no explicit-list grid (ListGrid) and no batch client (callBatch), and EvaluateBatch is a loop of Evaluate calls kept as the bench's door"; exit 1; }
	@test -z "$$(grep -lE '"repro/internal/(plan|dispatch)"' $$(find internal/serve -name '*.go' ! -name '*_test.go'))" && \
	test -z "$$(grep -rl '"/v1/plan"' --include='*.go' . | grep -v '_test\.go$$')" || { \
		echo "a sweepd is a shard: internal/serve answers from its local runner (no internal/plan or internal/dispatch import) and there is no /v1/plan; the process that asks coordinates its fleet"; exit 1; }
	@! grep -nE '^func \([a-z]* ?\*?RemoteBackend\) Curve\(' $$(find internal/eval -name '*.go' ! -name '*_test.go') && \
	test "$$(grep -rl '"/v1/curve"' --include='*.go' internal cmd examples | grep -v '_test\.go$$' | sort | tr '\n' ' ')" = "internal/eval/remote.go internal/serve/serve.go " || { \
		echo "one curve request per grid: a grid's curve context is one /v1/curve request over its spec (RemoteBackend.Curves, answered by internal/serve's handler); RemoteBackend describes no single curve"; exit 1; }
	@test -z "$$(grep -rlE '"/v1/(sweep|builtins)"' --include='*.go' internal cmd examples | grep -v '_test\.go$$')" && \
	! grep -nE '^func \([a-z]* ?\*?Row\) UnmarshalJSON\(' $$(find internal/sweep -name '*.go' ! -name '*_test.go') && \
	! grep -nE '^func \([a-z]* ?\*?(Candidate|Result)\) UnmarshalJSON\(' $$(find internal/plan -name '*.go' ! -name '*_test.go') || { \
		echo "one grid stream: a shard streams a grid as /v1/sweep/part PartItems (a spec with no range is the whole grid); there is no /v1/sweep or /v1/builtins, and sweep.Row (cmd/sweep -stream), plan.Candidate and plan.Result (cmd/plan -json, -stream) are written, never decoded"; exit 1; }
	@test -z "$$(grep -rlF '.Key()' --include='*.go' internal/sweep internal/dispatch internal/serve internal/store | grep -v '_test\.go$$' | grep -vx internal/sweep/run.go)" && \
	test "$$(grep -rlF '.AppendCurveKey(' --include='*.go' . | grep -v '_test\.go$$' | sort | tr '\n' ' ')" = "./internal/sweep/expand.go ./internal/sweep/run.go " && \
	test "$$(grep -rlF 'AppendJoinKey(' --include='*.go' . | grep -v '_test\.go$$' | sort | tr '\n' ' ')" = "./internal/eval/scenario.go ./internal/store/store.go ./internal/sweep/cache.go ./internal/sweep/run.go " || { \
		echo "keys are built once per curve: a grid's curve keys are written by Scenario.AppendCurveKey in internal/sweep/expand.go (and, for Runner.Evaluate's one cell, run.go) and a cell is its curve key and eval.Token; a cell's full key is joined (eval.AppendJoinKey) only where it leaves the process: run.go (a traced span, an error), cache.go (Cache.Range) and internal/store/store.go (a store line); Scenario.Key() is called in internal/sweep, dispatch, serve and store only by run.go"; exit 1; }
	@! grep -nE 'map\[string\]eval\.Point|KeyArena' $$(find internal/store -name '*.go' ! -name '*_test.go') && \
	test "$$(grep -rlF 'Name: "sweep_cache_' --include='*.go' . | grep -v '_test\.go$$')" = ./internal/sweep/cache.go || { \
		echo "one cell index: a store's live cells are its sweep.Cache and the store keeps only its segment log (non-test internal/store declares no map[string]eval.Point and names no KeyArena), and the sweep_cache_* series are written in internal/sweep/cache.go only"; exit 1; }
	@test -z "$$(awk '/^type Grid struct/,/^}/' $$(find internal/sweep -name '*.go' ! -name '*_test.go') | grep -E '\[\](eval\.)?Scenario\b')" && \
	test "$$(grep -nE '\.Evaluate\(|EvaluateEach\(' $$(find internal/sweep -name '*.go' ! -name '*_test.go') | wc -l)" = 1 && \
	grep -qE '^		n, err = eval\.EvaluateEach\(ctx, be, seg\)$$' internal/sweep/run.go || { \
		echo "a curve is the unit of work: sweep.Grid holds each cell's Scenario once, in its Rows, and declares no per-cell scenario slice beside them; in internal/sweep a backend's per-cell Evaluate is reached only from the one adapter (evaluate in run.go, through eval.EvaluateEach), for a backend that does not answer curves (eval.CurveEvaluator)"; exit 1; }
	@# The one exception: TestCurveVerdictIsFinal (internal/dispatch/curves_test.go)
	@# answers /v1/curve with a list of the wrong length, a protocol breach that must
	@# fail the Run; the harness injects only faults a run must survive.
	@test -z "$$(grep -rl '"repro/internal/fleettest"' --include='*.go' . | grep -v '_test\.go$$')" && \
	test "$$(grep -rF 'http.HandlerFunc(' --include='*_test.go' internal/dispatch internal/eval | cut -d: -f1)" = internal/dispatch/curves_test.go || { \
		echo "one fault harness: a fleet is broken on purpose through internal/fleettest's schedule (imported by _test.go files only), not by a bespoke http.HandlerFunc server in internal/dispatch or internal/eval tests"; exit 1; }
	@test -z "$$(find . -maxdepth 1 -name '*.go' ! -name '*_test.go')" || { \
		echo "one API surface: no non-test Go file at the module root; callers import the internal/ package that owns each entry point (see examples/)"; exit 1; }
	@! grep -nE '^func \([a-z]* ?\*?(FatTreeModel|TorusModel)\) (Latency|ServiceInj|SaturationLoad|ChannelStats|Name|MsgFlits|AvgDist|BuildCoreModel|setRates)\(' internal/analytic/*.go && \
	test -z "$$(grep -rlE '^type (NetworkModel|HypercubeModel)[[:space:]]' --include='*.go' . | grep -v '_test\.go$$')" || { \
		echo "one analytic model: Latency, ServiceInj, SaturationLoad, ChannelStats, Name, MsgFlits, AvgDist and BuildCoreModel are declared on analytic.Model only (FatTreeModel and TorusModel embed it and give their rates as perLink), and no NetworkModel or HypercubeModel type is declared"; exit 1; }
	@! grep -nE '^func \([^)]*\) (Groups|GroupOf|Kind|InjectionChannel|EjectsTo)\(|^[[:space:]]+(Members|GroupOf|GroupOff|EjectsTo|Inject)[[:space:]]' $$(find internal/topology -name '*.go' ! -name '*_test.go') || { \
		echo "a network's tables are two bytes per channel and a stride: no type in internal/topology declares Groups, GroupOf, Kind, InjectionChannel or EjectsTo, or a Members, GroupOf, GroupOff, EjectsTo or Inject column; every reader, the simulator's cycle loop first, takes Tables' Kind and Lead columns, a group is the run named by its first channel (channel ch is in group ch - Lead[ch]), and processor p's channels are where Stride puts them, Injection(p) = p*Stride and Ejection(p) = p*Stride+1"; exit 1; }
	@! grep -nE '^type route[[:space:]]|^[[:space:]]+(sw|parents)[[:space:]]+[][*A-Za-z]' $$(find internal/topology -name '*.go' ! -name '*_test.go') || { \
		echo "a fat-tree routes by §3.1's formulas and keeps no per-switch records: non-test internal/topology declares no route type and no sw or parents field; NextGroup reads a switch's level from its index (one bits.Len) and computes its parents, its up group and its down-links from the wiring (the per-channel reference in internal/topology/tables_test.go checks them)"; exit 1; }
	@test -z "$$(grep -rlE 'calib-map|LoadMap\(|MapPath\(|func \(m \*Map\) Save' --include='*.go' . | grep -v '_test\.go$$')" && \
	! grep -lE '^[[:space:]]*(import[[:space:]]+)?"os"$$' $$(find internal/calib -name '*.go' ! -name '*_test.go') || { \
		echo "one calibration record: the result store is the record; a calibration map is mined from it in memory and never saved or loaded (internal/calib does not import os)"; exit 1; }
	@! grep -nE 'RunReference|refEngine|fifo\[' $$(find internal/sim -name '*.go' ! -name '*_test.go') || { \
		echo "one simulator: internal/sim has one engine, pinned by result digests and checked by conservation laws (pinned_test.go, conservation_test.go); the dense reference engine (RunReference, refEngine, fifo[T]) stays deleted"; exit 1; }
	@test -z "$$(grep -rlE 'FixedPointInPlace|FixedPointOptions' --include='*.go' . | grep -v '_test\.go$$')" || { \
		echo "one fixed-point kernel: a cyclic channel graph is solved by core.Workspace's fused damped kernel only (damped in internal/core/core.go, checked bit for bit by FuzzCyclicKernel against the old generic loop kept in kernel_test.go); internal/solve brackets and declares no generic fixed-point solver (FixedPointInPlace, FixedPointOptions)"; exit 1; }
	@h="$$(awk '/^func \(s \*Server\) handleEval\(/,/^}/' internal/serve/serve.go)"; \
	e="$$(awk '/^func \(b \*RemoteBackend\) Evaluate\(/,/^}/' internal/eval/remote.go)"; \
	test -n "$$h" && test -n "$$e" && ! printf '%s\n%s\n' "$$h" "$$e" | grep -n 'json\.' || { \
		echo "one cell on the wire: a /v1/eval scenario and its point cross the wire through internal/eval's codec (AppendScenario and readPoint in RemoteBackend.Evaluate, DecodeScenario and AppendPoint in internal/serve's handleEval), whose encoding/json fall-through lives behind those calls; neither body names json."; exit 1; }
	@test "$$(awk '/^func / { f = $$0; sub(/^func (\([^)]*\) )?/, "", f); sub(/\(.*/, "", f) } /\.Evaluate([^A-Za-z0-9_]|$$)/ { print f ":" (/engine\.Evaluate/ ? "engine" : /search\.Evaluate/ ? "search" : "other") }' $$(find internal/plan -name '*.go' ! -name '*_test.go') | sort | tr '\n' ' ')" = "certify:engine operate:engine searchAt:search " || { \
		echo "a plan's search is local: non-test internal/plan evaluates one cell through its Engine only from operate (a refined candidate's operating point) and certify (the sim certification), and every load-search probe through the planner's own runner in searchAt"; exit 1; }

# The size every change reports: non-test Go lines outside bench/. Files
# under testdata/ (the door guard's planted module) are test inputs that
# no package builds, so they are not counted. CI prints it; it is not a
# gate.
lines:
	@echo "$$(find . -name '*.go' -not -path './bench/*' -not -path '*/testdata/*' -not -name '*_test.go' -exec cat {} + | wc -l) non-test Go lines outside bench/"

# staticcheck runs when the binary is available (CI installs it; locally
# it is optional so the default toolchain stays sufficient).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

fmt:
	gofmt -w .
