package drill

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"goodenough"
	"goodenough/internal/obs"
)

// The scenario tests boot the serving tier's real binaries on free ports
// and drive them the way an operator would: geserve replicas, gegate in
// front, gechaos in between, geload and gestat as clients. Each process
// runs through the drill harness's proc, so boot, health waits, signals
// and teardown are the ones gedrill uses.

// commands are the binaries the process-level tests run.
var commands = []string{"geserve", "gegate", "gechaos", "geload", "gestat"}

var bins struct {
	once sync.Once
	dir  string
	err  error
}

var testClient = &http.Client{Timeout: 10 * time.Second}

func TestMain(m *testing.M) {
	code := m.Run()
	if bins.dir != "" {
		os.RemoveAll(bins.dir)
	}
	os.Exit(code)
}

// binary returns the path of one of commands. The first call builds all of
// them with one go build, so a -short run or a unit-test-only run builds
// nothing.
func binary(t *testing.T, name string) string {
	t.Helper()
	bins.once.Do(func() {
		if bins.dir, bins.err = os.MkdirTemp("", "drill-bin-*"); bins.err != nil {
			return
		}
		args := []string{"build", "-o", bins.dir + string(filepath.Separator)}
		for _, c := range commands {
			args = append(args, "goodenough/cmd/"+c)
		}
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			bins.err = fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	})
	if bins.err != nil {
		t.Fatal(bins.err)
	}
	return filepath.Join(bins.dir, name)
}

func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("process-level scenario skipped in -short mode")
	}
}

// addrs reserves n localhost addresses.
func addrs(t *testing.T, n int) []string {
	t.Helper()
	ports, err := freePorts(n)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, n)
	for i, p := range ports {
		out[i] = fmt.Sprintf("127.0.0.1:%d", p)
	}
	return out
}

// spawn starts a long-running command as a proc with its log in a temp
// dir. Cleanup stops it if the test did not, and prints the log when the
// test failed.
func spawn(t *testing.T, name, command string, args ...string) *proc {
	t.Helper()
	logPath := filepath.Join(t.TempDir(), name+".log")
	p, err := newProc(name, binary(t, command), args, logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.start(); err != nil {
		p.close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = p.stop(5 * time.Second)
		p.close()
		if t.Failed() {
			if log, err := os.ReadFile(logPath); err == nil {
				t.Logf("--- %s log ---\n%s", name, log)
			}
		}
	})
	return p
}

// terminate requires a clean SIGTERM: the process exits within the grace
// period on its own, with status 0.
func terminate(t *testing.T, p *proc) {
	t.Helper()
	if err := p.stop(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := p.cmd.ProcessState; !st.Success() {
		t.Fatalf("%s exited %v on SIGTERM", p.name, st)
	}
}

func healthy(t *testing.T, url string) {
	t.Helper()
	if err := waitHealthy(testClient, url, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// geserve spawns a replica on addr with the flags every scenario shares
// and waits for its /healthz.
func geserve(t *testing.T, name, addr string, args ...string) *proc {
	t.Helper()
	args = append([]string{"-addr", addr, "-concurrency", "2", "-drain-timeout", "2s"}, args...)
	p := spawn(t, name, "geserve", args...)
	healthy(t, "http://"+addr+"/healthz")
	return p
}

// run executes a command to completion and returns its standard output; a
// non-zero exit fails the test.
func run(t *testing.T, command string, args ...string) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, binary(t, command), args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s%s", command, strings.Join(args, " "), err, out, stderr.Bytes())
	}
	return out
}

// loadReport is one geload -csv row keyed by its header.
type loadReport map[string]string

// geload runs one load with -csv and parses its report.
func geload(t *testing.T, args ...string) loadReport {
	t.Helper()
	out := run(t, "geload", append(args, "-csv")...)
	rows, err := csv.NewReader(bytes.NewReader(out)).ReadAll()
	if err != nil || len(rows) != 2 || len(rows[0]) != len(rows[1]) {
		t.Fatalf("geload -csv: want a header and one row (%v):\n%s", err, out)
	}
	t.Logf("geload: %s", out)
	rep := make(loadReport, len(rows[0]))
	for i, name := range rows[0] {
		rep[name] = rows[1][i]
	}
	return rep
}

// num reads one numeric column; a missing column fails the test.
func (r loadReport) num(t *testing.T, name string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(r[name], 64)
	if err != nil {
		t.Fatalf("geload column %q: %v", name, err)
	}
	return v
}

// get fetches url and requires a 200.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := testClient.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// post sends body as JSON to url and requires a 200.
func post(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := testClient.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, reply)
	}
	return reply
}

func metrics(t *testing.T, base string) map[string]int64 {
	t.Helper()
	m, err := scrapeMetrics(testClient, base)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestServeScenario: one geserve boots, answers its probes, one run, one
// trace replay and one sweep (the last two equal to the in-process calls),
// takes a brief closed-loop overload, and drains cleanly on SIGTERM.
func TestServeScenario(t *testing.T) {
	skipShort(t)
	addr := addrs(t, 1)[0]
	base := "http://" + addr
	serve := geserve(t, "geserve", addr, "-queue", "2", "-timeout", "10s")
	if body := get(t, base+"/readyz"); !strings.HasPrefix(body, "ready") {
		t.Fatalf("readyz not ready: %q", body)
	}

	body := post(t, base+"/v1/run", `{"Scheduler":"ge","ArrivalRate":154,"DurationSec":5}`)
	if !bytes.Contains(body, []byte(`"Jobs":`)) {
		t.Fatalf("run answered no result: %s", body)
	}
	if bytes.Contains(body, []byte(`"Cancelled":true`)) {
		t.Fatalf("uncontended run came back cancelled: %s", body)
	}

	// A replayed trace answers exactly what an in-process replay of the
	// same trace does, byte for byte.
	cfg := goodenough.DefaultConfig()
	cfg.DurationSec = 5
	var trace bytes.Buffer
	if err := goodenough.ExportTrace(cfg, &trace); err != nil {
		t.Fatal(err)
	}
	res, err := goodenough.RunTraceContext(context.Background(), cfg, bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(map[string]goodenough.Result{"result": res}); err != nil {
		t.Fatal(err)
	}
	body = post(t, base+"/v1/trace", `{"trace":`+trace.String()+`}`)
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("/v1/trace answered\n%s\nan in-process replay gives\n%s", body, want.Bytes())
	}

	// Each point of a sweep is the run goodenough.Run makes at its rate.
	var sweep struct {
		Points []struct {
			Rate   float64
			Result json.RawMessage
		}
	}
	if err := json.Unmarshal(post(t, base+"/v1/sweep", `{"config":{"DurationSec":5},"rates":[100,200]}`), &sweep); err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != 2 || sweep.Points[0].Rate != 100 || sweep.Points[1].Rate != 200 {
		t.Fatalf("sweep over 100 and 200 req/s answered %d points", len(sweep.Points))
	}
	for _, p := range sweep.Points {
		cfg.ArrivalRate = p.Rate
		res, err := goodenough.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := json.Marshal(res); err != nil || !bytes.Equal(p.Result, want) {
			t.Fatalf("sweep point at %v req/s is\n%s\ngoodenough.Run gives\n%s (%v)", p.Rate, p.Result, want, err)
		}
	}

	// geload exits 0 as long as every request resolves, admitted or
	// cleanly shed.
	geload(t, "-url", base, "-mode", "closed", "-concurrency", "6", "-requests", "24",
		"-run-duration", "10", "-retries", "1", "-backoff", "100ms")
	terminate(t, serve)
}

// TestChaosScenario: three replicas behind gegate, one of them behind a
// gechaos proxy that black-holes it from 1 s for 4 s. Open-loop load across
// the outage must see no failure at the client, and the gateway must have
// won at least one hedge.
func TestChaosScenario(t *testing.T) {
	skipShort(t)
	a := addrs(t, 5) // three replicas, the chaos proxy, the gateway
	for i := 0; i < 3; i++ {
		geserve(t, fmt.Sprintf("replica%d", i), a[i], "-queue", "4", "-timeout", "10s")
	}
	// The proxy's schedule clock starts when it does.
	chaos := spawn(t, "gechaos", "gechaos", "-listen", a[3], "-target", a[0],
		"-spec", `[{"at":1,"kind":"blackhole","duration":4}]`)
	gate := spawn(t, "gegate", "gegate", "-addr", a[4],
		"-replicas", "http://"+a[3]+",http://"+a[1]+",http://"+a[2],
		"-probe-interval", "300ms", "-probe-timeout", "500ms",
		"-breaker-failures", "2", "-breaker-open", "2s",
		"-hedge-min", "50ms", "-max-attempts", "3", "-retry-burst", "100", "-timeout", "30s")
	base := "http://" + a[4]
	healthy(t, base+"/readyz")

	// About 5 s of traffic spans the 1–5 s black hole.
	rep := geload(t, "-url", base, "-mode", "open", "-rate", "20", "-requests", "100",
		"-run-duration", "0.3", "-retries", "2", "-backoff", "100ms")
	if ok, shed, errs := rep.num(t, "ok"), rep.num(t, "shed"), rep.num(t, "errors"); ok != 100 || shed != 0 || errs != 0 {
		t.Fatalf("client saw the outage: ok=%v shed=%v errors=%v", ok, shed, errs)
	}

	m := metrics(t, base)
	if m["hedges_won_total"] < 1 {
		t.Errorf("hedges_won_total = %d, want >= 1", m["hedges_won_total"])
	}
	for _, name := range []string{"breaker_open_total", "hedges_fired_total", "retry_budget_tokens", "replica0_probe_ok"} {
		if _, ok := m[name]; !ok {
			t.Errorf("gateway /metricz missing %s", name)
		}
	}
	t.Logf("replicaz:\n%s", get(t, base+"/replicaz"))

	terminate(t, gate)
	terminate(t, chaos)
}

// TestObsScenario: traced load through gegate into two replicas, every
// tier writing a span log. Both tiers speak Prometheus and serve live
// samples, gestat renders a panel, and after a clean SIGTERM the span logs
// share client trace IDs across all three processes and merge into one
// Chrome trace.
func TestObsScenario(t *testing.T) {
	skipShort(t)
	a := addrs(t, 3) // two replicas, the gateway
	dir := t.TempDir()
	spanLog := func(name string) string { return filepath.Join(dir, name+".spans.jsonl") }

	var replicas []*proc
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("replica%d", i)
		replicas = append(replicas, geserve(t, name, a[i],
			"-queue", "8", "-timeout", "10s", "-span-log", spanLog(name)))
	}
	gate := spawn(t, "gegate", "gegate", "-addr", a[2],
		"-replicas", "http://"+a[0]+",http://"+a[1],
		"-probe-interval", "300ms", "-hedge-min", "50ms", "-timeout", "30s",
		"-span-log", spanLog("gegate"))
	base := "http://" + a[2]
	healthy(t, base+"/readyz")

	rep := geload(t, "-url", base, "-mode", "closed", "-concurrency", "4", "-requests", "20",
		"-run-duration", "0.2", "-span-log", spanLog("geload"))
	if ok := rep.num(t, "ok"); ok != 20 {
		t.Fatalf("only %v/20 traced requests succeeded", ok)
	}

	for _, url := range []string{base, "http://" + a[0]} {
		if body := get(t, url+"/metricz"); !strings.Contains(body, "# TYPE ") {
			t.Fatalf("%s/metricz is not Prometheus text:\n%s", url, body)
		}
		waitSample(t, url)
	}
	if panel := run(t, "gestat", "-targets", base+",http://"+a[0], "-n", "1", "-plain"); !bytes.Contains(panel, []byte(a[2])) {
		t.Fatalf("gestat panel does not name the gateway %s:\n%s", a[2], panel)
	}

	// SIGTERM must exit 0 and flush every span log.
	terminate(t, gate)
	for _, p := range replicas {
		terminate(t, p)
	}
	client, gateway := traces(t, spanLog("geload")), traces(t, spanLog("gegate"))
	if len(client) == 0 || len(gateway) == 0 {
		t.Fatalf("empty span log: %d client traces, %d gateway traces", len(client), len(gateway))
	}
	server := traces(t, spanLog("replica0"), spanLog("replica1"))
	shared := 0
	for id := range client {
		if gateway[id] && server[id] {
			shared++
		}
	}
	if shared < 1 {
		t.Fatalf("no client trace ID in both the gateway and a replica span log (%d client, %d gateway, %d server traces)",
			len(client), len(gateway), len(server))
	}
	t.Logf("%d client traces continue through gegate and geserve", shared)

	out := filepath.Join(dir, "trace.json")
	run(t, "gestat", "-spans", strings.Join([]string{spanLog("geload"), spanLog("gegate"),
		spanLog("replica0"), spanLog("replica1")}, ","), "-trace", out)
	merged, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"traceEvents"`, `"ph":"X"`} {
		if !bytes.Contains(merged, []byte(want)) {
			t.Fatalf("merged trace has no %s", want)
		}
	}
}

// TestFailedShutdownFlushesLogs: when a SIGTERM drain cannot close every
// connection in time, geserve and gegate exit 1, but the span and decision
// logs they buffered still reach disk. A request whose body never arrives
// holds each server's shutdown past its deadline.
func TestFailedShutdownFlushesLogs(t *testing.T) {
	skipShort(t)
	a := addrs(t, 2) // the replica, the gateway
	dir := t.TempDir()
	serveSpans := filepath.Join(dir, "geserve.spans.jsonl")
	gateSpans := filepath.Join(dir, "gegate.spans.jsonl")
	decisions := filepath.Join(dir, "geserve.decisions.jsonl")
	// geserve's shutdown deadline is -drain-timeout plus 5 s of slack.
	serve := geserve(t, "geserve", a[0], "-drain-timeout", "1ms", "-timeout", "10s",
		"-span-log", serveSpans, "-governor", "-decision-log", decisions)
	gate := spawn(t, "gegate", "gegate", "-addr", a[1], "-replicas", "http://"+a[0],
		"-shutdown-grace", "1ms", "-span-log", gateSpans)
	healthy(t, "http://"+a[1]+"/readyz")

	const requests = 3
	for i := 0; i < requests; i++ {
		resp, err := testClient.Post("http://"+a[1]+"/v1/run", "application/json",
			strings.NewReader(`{"DurationSec":0.5}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d through gegate: status %d", i, resp.StatusCode)
		}
	}

	// Each server counts a /v1 request before it reads the body, so once
	// the counter moves, the stalled request holds an active connection.
	for _, hold := range []struct{ addr, counter string }{
		{a[0], "requests_total"}, {a[1], "gw_requests_total"},
	} {
		conn, err := net.Dial("tcp", hold.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST /v1/run HTTP/1.1\r\nHost: %s\r\nContent-Length: 64\r\n\r\n", hold.addr)
		deadline := time.Now().Add(10 * time.Second)
		for metrics(t, "http://"+hold.addr)[hold.counter] <= requests {
			if time.Now().After(deadline) {
				t.Fatalf("%s never counted the stalled request", hold.addr)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	var wg sync.WaitGroup
	for _, p := range []*proc{gate, serve} {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			if err := p.stop(20 * time.Second); err != nil {
				t.Error(err)
			}
		}(p)
	}
	wg.Wait()
	for _, p := range []*proc{gate, serve} {
		if code := p.cmd.ProcessState.ExitCode(); code != 1 {
			t.Errorf("%s exited %d after its shutdown deadline, want 1", p.name, code)
		}
	}

	// gegate writes a request span and an attempt span per request; every
	// one of its traces continues in geserve's log.
	data, err := os.ReadFile(gateSpans)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadSpans(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: %v", gateSpans, err)
	}
	if len(spans) != 2*requests {
		t.Errorf("gegate span log holds %d spans, want %d", len(spans), 2*requests)
	}
	gateway, server := traces(t, gateSpans), traces(t, serveSpans)
	for id := range gateway {
		if !server[id] {
			t.Errorf("trace %x is in gegate's span log but not in geserve's", id)
		}
	}
	log, err := os.ReadFile(decisions)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(log, []byte(`"decision":"admit"`)); n != requests {
		t.Errorf("geserve logged %d admit decisions, want %d", n, requests)
	}
}

// waitSample polls base's /timeseriez until some series holds a sample.
func waitSample(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var doc struct {
			Series map[string]struct {
				T []int64 `json:"t"`
			} `json:"series"`
		}
		if err := json.Unmarshal([]byte(get(t, base+"/timeseriez")), &doc); err != nil {
			t.Fatalf("%s/timeseriez: %v", base, err)
		}
		for _, s := range doc.Series {
			if len(s.T) > 0 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s/timeseriez holds no sample after 10s (%d series)", base, len(doc.Series))
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// traces reads the set of trace IDs in the span logs at paths.
func traces(t *testing.T, paths ...string) map[uint64]bool {
	t.Helper()
	ids := make(map[uint64]bool)
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spans, err := obs.ReadSpans(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, s := range spans {
			ids[s.Trace] = true
		}
	}
	return ids
}

// TestBrownoutScenario: real traffic at about twice capacity must brown
// out, not fall over. Two governed replicas behind a quality-aware gateway
// cut demand and hold quality near Q_GE with no failures; one replica on a
// starvation budget sheds, and every shed carries a usable Retry-After.
func TestBrownoutScenario(t *testing.T) {
	skipShort(t)
	const qge = 0.9
	governor := []string{"-governor", "-governor-qge", "0.9", "-governor-nominal", "500ms"}

	t.Run("degrade", func(t *testing.T) {
		a := addrs(t, 3) // two replicas, the gateway
		dir := t.TempDir()
		var replicas []*proc
		var decisions []string
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("replica%d", i)
			decisions = append(decisions, filepath.Join(dir, name+".decisions.jsonl"))
			args := append([]string{"-queue", "4", "-timeout", "15s",
				"-governor-budget", "1.5", "-governor-quantum", "50ms", "-governor-window", "2s",
				"-decision-log", decisions[i]}, governor...)
			replicas = append(replicas, geserve(t, name, a[i], args...))
		}
		gate := spawn(t, "gegate", "gegate", "-addr", a[2],
			"-replicas", "http://"+a[0]+",http://"+a[1],
			"-quality-aware", "-no-hedge", "-probe-interval", "200ms")
		healthy(t, "http://"+a[2]+"/healthz")
		if body := get(t, "http://"+a[0]+"/readyz"); !strings.HasPrefix(body, "ready state=") {
			t.Fatalf("governed readyz carries no state: %q", body)
		}

		// 2x capacity: 8 closed-loop workers against 2 replicas x 2 slots.
		rep := geload(t, "-url", "http://"+a[2], "-mode", "closed", "-concurrency", "8", "-requests", "40",
			"-run-duration", "100", "-retries", "4", "-backoff", "100ms")
		if errs, noHint, ok := rep.num(t, "errors"), rep.num(t, "no_hint"), rep.num(t, "ok"); errs != 0 || noHint != 0 || ok <= 0 {
			t.Fatalf("errors=%v no_hint=%v ok=%v, want 0, 0 and > 0", errs, noHint, ok)
		}
		if q := rep.num(t, "q_mean"); q < qge-0.05 {
			t.Fatalf("batch quality %v below Q_GE - 0.05", q)
		}
		cuts := make([]int64, 2)
		for i := range cuts {
			cuts[i] = metrics(t, "http://"+a[i])["governor_cut_total"]
		}
		if cuts[0]+cuts[1] <= 0 {
			t.Fatal("no governor cut under 2x load: the overload never bit")
		}

		// The quality-aware gateway may leave one replica calm, so each
		// decision log must hold exactly its replica's cuts, not one each.
		terminate(t, gate)
		for i, p := range replicas {
			terminate(t, p)
			log, err := os.ReadFile(decisions[i])
			if err != nil {
				t.Fatal(err)
			}
			if n := int64(bytes.Count(log, []byte(`"decision":"cut"`))); n != cuts[i] {
				t.Errorf("%s logged %d cut decisions, its /metricz counted %d", p.name, n, cuts[i])
			}
		}
	})

	t.Run("shed", func(t *testing.T) {
		addr := addrs(t, 1)[0]
		base := "http://" + addr
		args := append([]string{"-queue", "2", "-timeout", "15s",
			"-governor-budget", "0.05", "-governor-quantum", "20ms"}, governor...)
		replica := geserve(t, "replica", addr, args...)

		rep := geload(t, "-url", base, "-mode", "closed", "-concurrency", "4", "-requests", "16",
			"-run-duration", "100", "-retries", "1", "-backoff", "100ms")
		if errs, noHint := rep.num(t, "errors"), rep.num(t, "no_hint"); errs != 0 || noHint != 0 {
			t.Fatalf("errors=%v no_hint=%v, want 0 and 0 (every shed hinted)", errs, noHint)
		}
		if shed := metrics(t, base)["brownout_shed_total"]; shed <= 0 {
			t.Fatal("starved replica never shed (brownout_shed_total = 0)")
		}
		terminate(t, replica)
	})
}
