// Command netarch is the CLI for the lightweight network-architecture
// reasoning framework: query the knowledge compendium, synthesize and
// check designs, optimize under lexicographic objectives, explain
// infeasibility, inspect the catalog, extract hardware encodings from
// spec sheets, export Figure 1-style orderings, analyse PFC safety, and
// regenerate every experiment of the paper.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"netarch"
	"netarch/internal/dsl"
	"netarch/internal/experiments"
	"netarch/internal/extract"
	"netarch/internal/kb"
	"netarch/internal/logic"
	"netarch/internal/order"
	"netarch/internal/report"
	"netarch/internal/topo"
)

const usage = `netarch - lightweight automated reasoning for network architectures

Usage:
  netarch experiments [id]          regenerate paper experiments (all or one)
  netarch synth [flags]             synthesize a compliant design
  netarch check -systems a,b [...]  check a concrete design
  netarch optimize [flags]          lexicographic optimization
  netarch explain [flags]           explain why no design exists
  netarch suggest [flags]           propose minimal requirement relaxations
  netarch disambiguate [flags]      report where the solution space forks
  netarch multi [flags]             run repeated queries on one engine
                                    (shows compiled-base cache amortization)
  netarch serve [flags]             long-lived HTTP/JSON query service with
                                    admission control and graceful drain
  netarch reload [flags] <kb|->     push a new knowledge base to a running
                                    serve instance (zero-downtime live update)
  netarch catalog [stats|systems|hardware|export|export-dsl]
  netarch kb <validate|to-json|to-dsl> <file|->
  netarch kb diff <old> <new>       compare two knowledge-base files
  netarch extract <specfile|->      extract a hardware encoding from a spec sheet
  netarch viz <dimension>           emit a Figure 1-style ordering as Graphviz DOT
  netarch pfc [flags]               PFC buffer-dependency deadlock analysis

Common synth/optimize/explain flags:
  -require p1,p2      required properties
  -context k=v,...    pinned context atoms (v in {true,false})
  -workloads w1,w2    workloads to support (default: all in the KB)
  -pin s1,s2          systems that must be deployed
  -forbid s1,s2       systems that must not be deployed
  -servers N          fleet size (default 48)
  -maxcost N          hardware budget in USD
  -md                 (synth) print a Markdown report instead of plain text
  -objectives list    (optimize) comma list: cost,cores,systems,power,
                      ports,latency,order:<dim> — earlier entries dominate
  -pareto             (optimize) enumerate the full non-dominated frontier
                      over the objectives instead of one lexicographic
                      optimum

Resource-governance flags (synth/check/optimize/explain/suggest/disambiguate):
  -timeout D          wall-clock deadline for the query (e.g. 500ms, 2s)
  -max-conflicts N    solver conflict budget per phase (0 = unlimited)
  -max-decisions N    solver decision budget per phase (0 = unlimited)
  -slice MODE         relevance-sliced compilation: on, off, or auto
                      (default auto: slice only when the catalog is large;
                      answers are identical whatever the mode)

Cache flags:
  -cache-dir DIR      persist compiled bases to DIR and revive them on
                      startup, so even a fresh process skips the first
                      compile (corrupt/stale files recompile silently)
  -cache-stats        print compiled-base cache stats after the queries,
                      including disk hit/miss/evict/corrupt counters
  -rounds N           (multi) rounds of synth+explain+optimize (default 3)

Serve flags (netarch serve; scenario flags set the prewarm shape, budget
flags set the server-side policy ceiling clients may only tighten):
  -addr HOST:PORT     listen address (default 127.0.0.1:8080, :0 = random)
  -max-inflight N     concurrently executing queries (0 = one per CPU)
  -queue-depth N      admission queue length (0 = 2x max-inflight); beyond
                      it requests shed with 429 + Retry-After
  -drain-timeout D    graceful-drain deadline on SIGINT/SIGTERM
  -slice MODE         relevance-sliced compilation: on, off, or auto
  -chaos SPEC         fault injection: seed=N,rate=F[,event=solve|conflict|both]
  -kb FILE            serve this knowledge base instead of the case study
  -retry-after D      backoff hint on 429/503 (header rounds up to >= 1s)

Reload flags (netarch reload [-addr host:port] <kbfile|->):
  -addr HOST:PORT     the running serve instance (default 127.0.0.1:8080)
  -timeout D          request deadline, covering the server-side recompiles

Profiling flags (before the command: netarch -cpuprofile=cpu.out synth ...):
  -cpuprofile FILE    write a pprof CPU profile for the whole run to FILE
  -memprofile FILE    write a pprof heap profile on exit to FILE

Exit codes: 0 success, 1 error, 2 usage, 4 resource budget exhausted
before a verdict. Degraded-but-useful answers (approximate explanations,
truncated enumerations) exit 0 and are labelled in the output.
`

func main() {
	os.Exit(run())
}

// run dispatches the subcommand and returns the process exit code. It
// exists so the deferred profile writers fire on every path — os.Exit
// in main would skip them.
func run() int {
	global := flag.NewFlagSet("netarch", flag.ContinueOnError)
	global.Usage = func() { fmt.Fprint(os.Stderr, usage) }
	cpuProfile := global.String("cpuprofile", "", "write a CPU profile for the whole run to this file")
	memProfile := global.String("memprofile", "", "write a heap profile on exit to this file")
	if err := global.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	args := global.Args()
	if len(args) < 1 {
		fmt.Fprint(os.Stderr, usage)
		return 2
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netarch: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "netarch: -cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "netarch: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // collect dead objects so the profile shows live heap
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "netarch: -memprofile: %v\n", err)
			}
		}()
	}

	var err error
	switch args[0] {
	case "experiments":
		err = cmdExperiments(args[1:])
	case "synth":
		err = cmdSolve(args[1:], "synth")
	case "check":
		err = cmdCheck(args[1:])
	case "optimize":
		err = cmdSolve(args[1:], "optimize")
	case "explain":
		err = cmdSolve(args[1:], "explain")
	case "suggest":
		err = cmdSolve(args[1:], "suggest")
	case "disambiguate":
		err = cmdSolve(args[1:], "disambiguate")
	case "multi":
		err = cmdMulti(args[1:])
	case "serve":
		err = cmdServe(args[1:])
	case "reload":
		err = cmdReload(args[1:])
	case "catalog":
		err = cmdCatalog(args[1:])
	case "kb":
		err = cmdKB(args[1:])
	case "extract":
		err = cmdExtract(args[1:])
	case "viz":
		err = cmdViz(args[1:])
	case "pfc":
		err = cmdPFC(args[1:])
	case "help":
		fmt.Print(usage)
	default:
		fmt.Fprintf(os.Stderr, "netarch: unknown command %q\n\n%s", args[0], usage)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "netarch: %v\n", err)
		if netarch.IsResourceExhausted(err) {
			return 4
		}
		return 1
	}
	return 0
}

func cmdExperiments(args []string) error {
	if len(args) > 0 {
		for _, r := range experiments.All() {
			if strings.EqualFold(r.ID, args[0]) {
				res, err := r.Run()
				if err != nil {
					return err
				}
				fmt.Println(res)
				return nil
			}
		}
		return fmt.Errorf("unknown experiment %q", args[0])
	}
	results, err := experiments.RunAll()
	if err != nil {
		return err
	}
	pass := 0
	for _, res := range results {
		fmt.Println(res)
		if res.Pass {
			pass++
		}
	}
	fmt.Printf("== summary: %d/%d experiments match the paper's shape\n", pass, len(results))
	return nil
}

// scenarioFlags registers the common scenario flags on fs.
func scenarioFlags(fs *flag.FlagSet) (get func() (netarch.Scenario, error), objectives *string) {
	require := fs.String("require", "", "comma list of required properties")
	context := fs.String("context", "", "comma list of atom=bool context pins")
	workloads := fs.String("workloads", "", "comma list of workloads")
	pin := fs.String("pin", "", "comma list of pinned systems")
	forbid := fs.String("forbid", "", "comma list of forbidden systems")
	servers := fs.Int("servers", 0, "fleet size (servers)")
	maxCost := fs.Int64("maxcost", 0, "hardware budget USD (0 = unlimited)")
	pinServer := fs.String("pin-server", "", "pin the server SKU")
	pinSwitch := fs.String("pin-switch", "", "pin the switch SKU")
	pinNIC := fs.String("pin-nic", "", "pin the NIC SKU")
	objectives = fs.String("objectives", "cost", "objectives: cost,cores,systems,order:<dim>")

	get = func() (netarch.Scenario, error) {
		sc := netarch.Scenario{
			NumServers: *servers,
			MaxCostUSD: *maxCost,
		}
		for _, p := range splitList(*require) {
			sc.Require = append(sc.Require, netarch.Property(p))
		}
		sc.Workloads = splitList(*workloads)
		sc.PinnedSystems = splitList(*pin)
		sc.ForbiddenSystems = splitList(*forbid)
		if *context != "" {
			sc.Context = map[string]bool{}
			for _, kv := range splitList(*context) {
				parts := strings.SplitN(kv, "=", 2)
				if len(parts) != 2 {
					return sc, fmt.Errorf("bad context pin %q (want atom=true|false)", kv)
				}
				switch parts[1] {
				case "true":
					sc.Context[parts[0]] = true
				case "false":
					sc.Context[parts[0]] = false
				default:
					return sc, fmt.Errorf("bad context value %q", parts[1])
				}
			}
		}
		hwPins := map[netarch.HardwareKind]string{}
		if *pinServer != "" {
			hwPins[netarch.KindServer] = *pinServer
		}
		if *pinSwitch != "" {
			hwPins[netarch.KindSwitch] = *pinSwitch
		}
		if *pinNIC != "" {
			hwPins[netarch.KindNIC] = *pinNIC
		}
		if len(hwPins) > 0 {
			sc.PinnedHardware = hwPins
		}
		return sc, nil
	}
	return get, objectives
}

// budgetFlags registers the resource-governance flags on fs. Kept
// separate from scenarioFlags: the scenario describes the question, the
// budget bounds the effort spent answering it.
func budgetFlags(fs *flag.FlagSet) (get func() netarch.Budget) {
	timeout := fs.Duration("timeout", 0, "wall-clock deadline for the query (0 = none)")
	maxConflicts := fs.Int64("max-conflicts", 0, "solver conflict budget per phase (0 = unlimited)")
	maxDecisions := fs.Int64("max-decisions", 0, "solver decision budget per phase (0 = unlimited)")
	return func() netarch.Budget {
		return netarch.Budget{
			Timeout:      *timeout,
			MaxConflicts: *maxConflicts,
			MaxDecisions: *maxDecisions,
		}
	}
}

// engineFlags registers the engine flags -slice and -cache-dir on fs and
// returns a constructor for an engine over a KB configured by them.
// -slice sets the relevance-slicing policy, a pure latency knob, so
// answers never depend on it (DESIGN.md §16). -cache-dir turns on the
// persistent compiled-base cache (see Engine.SetCacheDir).
func engineFlags(fs *flag.FlagSet) (newEngine func(k *netarch.KB) (*netarch.Engine, error)) {
	slice := fs.String("slice", "auto", "relevance-sliced compilation: on, off, or auto")
	dir := fs.String("cache-dir", "", "directory for persistent compiled-base snapshots (empty = off)")
	return func(k *netarch.KB) (*netarch.Engine, error) {
		mode, err := netarch.ParseSliceMode(*slice)
		if err != nil {
			return nil, err
		}
		eng, err := netarch.NewEngine(k)
		if err != nil {
			return nil, err
		}
		eng.SetSliceMode(mode)
		if *dir != "" {
			if err := eng.SetCacheDir(*dir); err != nil {
				return nil, err
			}
		}
		return eng, nil
	}
}

// queryContext returns a context canceled by SIGINT/SIGTERM, so an
// interrupted one-shot query stops at the next solver boundary and
// surfaces as a typed resource-exhaustion error ("canceled"): partial
// results already computed are still printed and the process exits 4,
// the same path a tripped budget takes.
func queryContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func cmdSolve(args []string, mode string) error {
	fs := flag.NewFlagSet(mode, flag.ContinueOnError)
	getScenario, objectives := scenarioFlags(fs)
	getBudget := budgetFlags(fs)
	newEngine := engineFlags(fs)
	cacheStats := fs.Bool("cache-stats", false, "print compiled-base cache stats after the query")
	pareto := fs.Bool("pareto", false, "enumerate the Pareto frontier instead of one lexicographic optimum")
	asMarkdown := fs.Bool("md", false, "(synth) emit a Markdown report instead of plain text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := getScenario()
	if err != nil {
		return err
	}
	budget := getBudget()
	ctx, stopSignals := queryContext()
	defer stopSignals()
	k := netarch.CaseStudy()
	eng, err := newEngine(k)
	if err != nil {
		return err
	}
	switch mode {
	case "synth":
		rep, err := eng.SynthesizeCtx(ctx, sc, budget)
		if err != nil {
			return err
		}
		if *asMarkdown {
			fmt.Print(report.Render(k, sc, rep, report.Options{ShowNotes: true}))
			if rep.Verdict == netarch.Infeasible {
				sugs, err := eng.SuggestCtx(ctx, sc, 3, budget)
				if err != nil {
					return err
				}
				fmt.Print(report.RenderSuggestions(sugs))
			}
			return nil
		}
		printReport(rep)
	case "explain":
		ex, err := eng.ExplainCtx(ctx, sc, budget)
		if err != nil {
			return err
		}
		if ex == nil {
			fmt.Println("FEASIBLE: nothing to explain")
		} else {
			fmt.Print(ex.String())
		}
	case "suggest":
		sugs, err := eng.SuggestCtx(ctx, sc, 5, budget)
		if err != nil {
			// Partial suggestions on a tripped budget are still worth
			// printing; the non-zero exit still reports the exhaustion.
			for i, s := range sugs {
				fmt.Printf("option %d:\n%s", i+1, s)
			}
			return err
		}
		if sugs == nil {
			fmt.Println("FEASIBLE: nothing to relax")
			return nil
		}
		for i, s := range sugs {
			fmt.Printf("option %d:\n%s", i+1, s)
		}
	case "disambiguate":
		d, err := eng.DisambiguateCtx(ctx, sc, 16, budget)
		if errors.Is(err, netarch.ErrSlicedEnumeration) {
			return fmt.Errorf("%w; rerun with -slice off", err)
		}
		if err != nil {
			return err
		}
		fmt.Print(d.String())
	case "optimize":
		objs, err := parseObjectives(*objectives)
		if err != nil {
			return err
		}
		if *pareto {
			res, err := eng.ParetoCtx(ctx, sc, objs, budget)
			if err != nil {
				return err
			}
			printPareto(res, objs)
		} else {
			res, err := eng.OptimizeCtx(ctx, sc, objs, budget)
			if err != nil {
				return err
			}
			printReport(&res.Report)
			if res.Verdict == netarch.Feasible {
				for i, v := range res.ObjectiveValues {
					if res.LowerBounds[i] == v {
						fmt.Printf("objective[%d] %s = %d (certified)\n", i, objs[i].Kind, v)
					} else {
						fmt.Printf("objective[%d] %s in [%d, %d]\n",
							i, objs[i].Kind, res.LowerBounds[i], v)
					}
				}
				if res.Approximate {
					fmt.Printf("approximate: optimization stopped on %s\n", res.ApproxCause)
				}
			}
		}
	}
	if *cacheStats {
		fmt.Printf("cache: %s\n", eng.CacheStats())
	}
	return nil
}

// cmdMulti runs repeated rounds of synth + explain + optimize on one
// engine over the same scenario, timing each query. The first round pays
// compilation; later rounds are served from the compiled-base cache, so
// the printed timings make the amortization visible.
func cmdMulti(args []string) error {
	fs := flag.NewFlagSet("multi", flag.ContinueOnError)
	getScenario, objectives := scenarioFlags(fs)
	getBudget := budgetFlags(fs)
	newEngine := engineFlags(fs)
	rounds := fs.Int("rounds", 3, "rounds of synth+explain+optimize to run")
	cacheStats := fs.Bool("cache-stats", true, "print compiled-base cache stats after the queries")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := getScenario()
	if err != nil {
		return err
	}
	objs, err := parseObjectives(*objectives)
	if err != nil {
		return err
	}
	budget := getBudget()
	ctx, stopSignals := queryContext()
	defer stopSignals()
	eng, err := newEngine(netarch.CaseStudy())
	if err != nil {
		return err
	}
	for r := 1; r <= *rounds; r++ {
		start := time.Now()
		rep, err := eng.SynthesizeCtx(ctx, sc, budget)
		if err != nil {
			return err
		}
		synthDur := time.Since(start)
		start = time.Now()
		if _, err := eng.ExplainCtx(ctx, sc, budget); err != nil {
			return err
		}
		explainDur := time.Since(start)
		start = time.Now()
		if _, err := eng.OptimizeCtx(ctx, sc, objs, budget); err != nil {
			return err
		}
		optDur := time.Since(start)
		fmt.Printf("round %d: %s  synth %s  explain %s  optimize %s\n",
			r, rep.Verdict,
			synthDur.Round(time.Microsecond),
			explainDur.Round(time.Microsecond),
			optDur.Round(time.Microsecond))
	}
	if *cacheStats {
		fmt.Printf("cache: %s\n", eng.CacheStats())
	}
	return nil
}

func parseObjectives(s string) ([]netarch.Objective, error) {
	var out []netarch.Objective
	for _, o := range splitList(s) {
		obj, err := netarch.ParseObjective(o)
		if err != nil {
			return nil, err
		}
		out = append(out, obj)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no objectives given")
	}
	return out, nil
}

// printPareto renders a frontier: one line per non-dominated point with
// its objective vector and witness, then the completeness verdict.
func printPareto(res *netarch.ParetoResult, objs []netarch.Objective) {
	if len(res.Points) == 0 && res.Complete {
		fmt.Println("INFEASIBLE: empty frontier")
		return
	}
	var names []string
	for _, o := range objs {
		if o.Dimension != "" {
			names = append(names, fmt.Sprintf("%s:%s", o.Kind, o.Dimension))
		} else {
			names = append(names, fmt.Sprint(o.Kind))
		}
	}
	fmt.Printf("frontier over (%s): %d points\n", strings.Join(names, ", "), len(res.Points))
	for i, p := range res.Points {
		vals := make([]string, len(p.Values))
		for j, v := range p.Values {
			vals[j] = fmt.Sprintf("%s=%d", names[j], v)
		}
		fmt.Printf("point %d: %s\n", i+1, strings.Join(vals, " "))
		d := p.Design
		fmt.Printf("  systems: %s\n", strings.Join(d.Systems, " "))
		fmt.Printf("  hw:      %s / %s / %s\n",
			d.Hardware[netarch.KindSwitch], d.Hardware[netarch.KindNIC],
			d.Hardware[netarch.KindServer])
	}
	if res.Complete {
		fmt.Println("complete: the frontier is provably the whole non-dominated set")
	} else {
		fmt.Printf("partial: stopped on %s; unexplored regions may add or dominate points\n",
			res.Exhausted.Cause)
	}
	fmt.Printf("spent:    %d conflicts, %d decisions, %s\n",
		res.Spent.Conflicts, res.Spent.Decisions, res.Spent.Wall.Round(time.Microsecond))
}

func printReport(rep *netarch.Report) {
	fmt.Println(rep.Verdict)
	if rep.Verdict == netarch.Feasible {
		d := rep.Design
		fmt.Printf("systems:  %s\n", strings.Join(d.Systems, " "))
		fmt.Printf("switch:   %s\n", d.Hardware[netarch.KindSwitch])
		fmt.Printf("nic:      %s\n", d.Hardware[netarch.KindNIC])
		fmt.Printf("server:   %s\n", d.Hardware[netarch.KindServer])
		fmt.Printf("cores:    %d/%d\n", d.Metrics["cores_used"], d.Metrics["cores_total"])
		fmt.Printf("cost:     $%d\n", d.Metrics["cost_usd"])
	} else {
		fmt.Print(rep.Explanation.String())
	}
	fmt.Printf("spent:    %d conflicts, %d decisions, %s\n",
		rep.Spent.Conflicts, rep.Spent.Decisions, rep.Spent.Wall.Round(time.Microsecond))
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	systems := fs.String("systems", "", "comma list of deployed systems")
	swName := fs.String("switch", "", "selected switch SKU")
	nicName := fs.String("nic", "", "selected NIC SKU")
	srvName := fs.String("server", "", "selected server SKU")
	getScenario, _ := scenarioFlags(fs)
	getBudget := budgetFlags(fs)
	newEngine := engineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := getScenario()
	if err != nil {
		return err
	}
	d := netarch.Design{
		Systems:  splitList(*systems),
		Hardware: map[netarch.HardwareKind]string{},
	}
	if *swName != "" {
		d.Hardware[netarch.KindSwitch] = *swName
	}
	if *nicName != "" {
		d.Hardware[netarch.KindNIC] = *nicName
	}
	if *srvName != "" {
		d.Hardware[netarch.KindServer] = *srvName
	}
	eng, err := newEngine(netarch.CaseStudy())
	if err != nil {
		return err
	}
	ctx, stopSignals := queryContext()
	defer stopSignals()
	rep, err := eng.CheckCtx(ctx, d, sc, getBudget())
	if err != nil {
		return err
	}
	printReport(rep)
	return nil
}

func cmdCatalog(args []string) error {
	sub := "stats"
	if len(args) > 0 {
		sub = args[0]
	}
	k := netarch.DefaultCatalog()
	switch sub {
	case "stats":
		st := k.ComputeStats()
		fmt.Printf("systems:     %d\n", st.Systems)
		fmt.Printf("hardware:    %d\n", st.Hardware)
		fmt.Printf("rules:       %d\n", st.Rules)
		fmt.Printf("order edges: %d\n", st.OrderEdges)
		fmt.Printf("spec size:   %d facts\n", st.SpecSize)
		for _, role := range kb.Roles() {
			fmt.Printf("  %-20s %d systems\n", role, len(k.SystemsByRole(role)))
		}
	case "systems":
		for _, role := range kb.Roles() {
			fmt.Printf("%s:\n", role)
			for _, s := range k.SystemsByRole(role) {
				fmt.Printf("  %-20s solves=%v maturity=%s\n", s.Name, s.Solves, s.Maturity)
			}
		}
	case "hardware":
		byKind := map[netarch.HardwareKind][]string{}
		for i := range k.Hardware {
			h := &k.Hardware[i]
			byKind[h.Kind] = append(byKind[h.Kind], h.Name)
		}
		for _, kind := range []netarch.HardwareKind{netarch.KindSwitch, netarch.KindNIC, netarch.KindServer} {
			names := byKind[kind]
			sort.Strings(names)
			fmt.Printf("%s (%d):\n", kind, len(names))
			for _, n := range names {
				fmt.Printf("  %s\n", n)
			}
		}
	case "export":
		return k.Save(os.Stdout)
	case "export-dsl":
		_, err := fmt.Print(dsl.Format(k))
		return err
	default:
		return fmt.Errorf("unknown catalog subcommand %q", sub)
	}
	return nil
}

// cmdKB validates or converts user-authored knowledge-base files in
// either JSON or DSL format — the crowd-sourcing workflow of §3.3.
func cmdKB(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: netarch kb <validate|to-json|to-dsl|diff> <file...>")
	}
	if args[0] == "diff" {
		if len(args) < 3 {
			return fmt.Errorf("usage: netarch kb diff <old> <new>")
		}
		oldData, err := os.ReadFile(args[1])
		if err != nil {
			return err
		}
		newData, err := os.ReadFile(args[2])
		if err != nil {
			return err
		}
		oldKB, err := loadAnyKB(oldData)
		if err != nil {
			return fmt.Errorf("%s: %w", args[1], err)
		}
		newKB, err := loadAnyKB(newData)
		if err != nil {
			return fmt.Errorf("%s: %w", args[2], err)
		}
		fmt.Print(kb.FormatDiff(kb.Diff(oldKB, newKB)))
		return nil
	}
	sub, path := args[0], args[1]
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	k, err := loadAnyKB(data)
	if err != nil {
		return err
	}
	switch sub {
	case "validate":
		st := k.ComputeStats()
		fmt.Printf("valid: %d systems, %d hardware, %d workloads, %d rules, %d order edges\n",
			st.Systems, st.Hardware, st.Workloads, st.Rules, st.OrderEdges)
		return nil
	case "to-json":
		return k.Save(os.Stdout)
	case "to-dsl":
		_, err := fmt.Print(dsl.Format(k))
		return err
	default:
		return fmt.Errorf("unknown kb subcommand %q", sub)
	}
}

// loadAnyKB sniffs JSON vs DSL.
func loadAnyKB(data []byte) (*netarch.KB, error) {
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "{") {
		return kb.Load(strings.NewReader(trimmed))
	}
	return dsl.ParseString(trimmed)
}

func cmdExtract(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: netarch extract <specfile|->")
	}
	var text []byte
	var err error
	if args[0] == "-" {
		text, err = io.ReadAll(os.Stdin)
	} else {
		text, err = os.ReadFile(args[0])
	}
	if err != nil {
		return err
	}
	llm := extract.NewSimulatedLLM(1)
	h, err := llm.ExtractHardware(string(text))
	if err != nil {
		return err
	}
	out := &netarch.KB{Hardware: []netarch.Hardware{h}}
	return out.Save(os.Stdout)
}

func cmdViz(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: netarch viz <dimension> (e.g. throughput, isolation)")
	}
	k := netarch.DefaultCatalog()
	spec := k.OrderByDimension(args[0])
	if spec == nil {
		var dims []string
		for _, o := range k.Orders {
			dims = append(dims, o.Dimension)
		}
		return fmt.Errorf("unknown dimension %q (have: %s)", args[0], strings.Join(dims, ", "))
	}
	vo := logic.NewVocabulary()
	g := order.New(spec.Dimension)
	for _, e := range spec.Edges {
		guard := logic.True
		if e.Guard != nil {
			var err error
			guard, err = e.Guard.Compile(vo.Get)
			if err != nil {
				return err
			}
		}
		if err := g.AddEdge(e.Better, e.Worse, guard, e.Note); err != nil {
			return err
		}
	}
	for _, e := range spec.Equals {
		guard := logic.True
		if e.Guard != nil {
			var err error
			guard, err = e.Guard.Compile(vo.Get)
			if err != nil {
				return err
			}
		}
		if err := g.AddEqual(e.A, e.B, guard, e.Note); err != nil {
			return err
		}
	}
	color := map[string]string{
		"throughput": "gold3", "isolation": "red3", "app_modification": "blue3",
	}[spec.Dimension]
	fmt.Print(g.DOT(vo, color))
	return nil
}

func cmdPFC(args []string) error {
	fs := flag.NewFlagSet("pfc", flag.ContinueOnError)
	shape := fs.String("topo", "leafspine:2x2", "topology: leafspine:SxL or fattree:K")
	flooding := fs.Bool("flooding", false, "enable L2 flooding")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		t   *topo.Topology
		err error
	)
	switch {
	case strings.HasPrefix(*shape, "leafspine:"):
		var s, l int
		if _, err := fmt.Sscanf(*shape, "leafspine:%dx%d", &s, &l); err != nil {
			return fmt.Errorf("bad leafspine shape %q", *shape)
		}
		t, err = topo.NewLeafSpine(s, l, 4, 64)
	case strings.HasPrefix(*shape, "fattree:"):
		var karg int
		if _, err := fmt.Sscanf(*shape, "fattree:%d", &karg); err != nil {
			return fmt.Errorf("bad fattree shape %q", *shape)
		}
		t, err = topo.NewFatTree(karg, 64)
	default:
		return fmt.Errorf("unknown topology %q", *shape)
	}
	if err != nil {
		return err
	}
	rep := t.PFCDeadlockCheck(*flooding)
	fmt.Println(rep)
	if rep.Deadlock {
		fmt.Println("rule check: the knowledge base forbids this (rule pfc_no_flooding)")
	}
	return nil
}
