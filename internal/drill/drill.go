package drill

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"goodenough/internal/obs"
	"goodenough/internal/rng"
	"goodenough/internal/server"
)

// Config parameterizes one drill run. Zero values select the defaults in
// withDefaults; GeservePath and GegatePath are required (cmd/gedrill
// builds them on demand when not supplied).
type Config struct {
	// Seed drives the fault schedule and the trace-ID stream.
	Seed uint64
	// Replicas is the fleet size (default 3).
	Replicas int
	// Rate is the offered open-loop request rate in req/s (default 40).
	Rate float64
	// Duration is the traffic horizon (default 12s).
	Duration time.Duration
	// Events is the fault schedule; empty generates one from Seed.
	Events []Event
	// GeservePath / GegatePath locate the binaries to boot.
	GeservePath string
	GegatePath  string
	// WorkDir holds journals and process logs (default: a temp dir). Run
	// creates it if it does not exist.
	WorkDir string
	// Governed runs the replicas under the GE overload governor.
	Governed bool

	// RejoinBound caps how long a restarted replica may take to re-enter
	// rotation, measured from its relaunch (default 5s).
	RejoinBound time.Duration
	// GoodputFrac is the recovery-window goodput floor as a fraction of
	// baseline (default 0.95).
	GoodputFrac float64
	// QualityFloor is the mean-quality floor for acknowledged requests;
	// defaults to 0.85 (Q_GE 0.9 − ε 0.05) when Governed, else disabled.
	QualityFloor float64

	Logf func(format string, args ...any)
}

// Each replica runs replicaConcurrency workers, and the gateway's rejoin
// slow-start climbs rampSteps steps of rampStep each.
const (
	replicaConcurrency = 2
	rampSteps          = 3
	rampStep           = 300 * time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Rate <= 0 {
		c.Rate = 40
	}
	if c.Duration <= 0 {
		c.Duration = 12 * time.Second
	}
	if c.RejoinBound <= 0 {
		c.RejoinBound = 5 * time.Second
	}
	if c.GoodputFrac <= 0 {
		c.GoodputFrac = 0.95
	}
	if c.QualityFloor == 0 && c.Governed {
		c.QualityFloor = 0.85
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// fleet is the running processes of one drill.
type fleet struct {
	cfg      Config
	client   *http.Client
	gate     *proc
	gateURL  string
	replicas []*proc
	repAddrs []string
	journals []string
}

// Run executes one full drill: boot, baseline, faults, recovery, audit.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.GeservePath == "" || cfg.GegatePath == "" {
		return nil, fmt.Errorf("drill: GeservePath and GegatePath are required")
	}
	if cfg.WorkDir == "" {
		dir, err := os.MkdirTemp("", "gedrill-*")
		if err != nil {
			return nil, err
		}
		cfg.WorkDir = dir
	} else if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, fmt.Errorf("drill: work dir: %w", err)
	}
	events := cfg.Events
	var err error
	if len(events) == 0 {
		events, err = Generate(cfg.Seed, cfg.Replicas, cfg.Duration)
	} else {
		events, err = Validate(events, cfg.Replicas)
	}
	if err != nil {
		return nil, err
	}

	f := &fleet{cfg: cfg, client: &http.Client{Timeout: 5 * time.Second}}
	defer f.teardown()
	if err := f.boot(); err != nil {
		return nil, err
	}
	cfg.Logf("drill: fleet up — gate %s, %d replicas, seed %d, %d faults",
		f.gateURL, cfg.Replicas, cfg.Seed, len(events))

	// Traffic and faults share one clock: offsets are measured from start.
	start := time.Now()
	var (
		recMu   sync.Mutex
		records []RequestRecord
	)
	trafficDone := make(chan struct{})
	go f.drive(start, func(r RequestRecord) {
		recMu.Lock()
		records = append(records, r)
		recMu.Unlock()
	}, trafficDone)

	rejoins, kills, faultErr := f.execute(start, events)
	<-trafficDone
	if faultErr != nil {
		return nil, faultErr
	}

	counters, err := scrapeMetrics(f.client, f.gateURL)
	if err != nil {
		return nil, err
	}
	f.teardown() // graceful stop before reading journals

	journals := make([][]server.JournalRecord, 0, len(f.journals))
	for _, path := range f.journals {
		recs, corrupt, err := server.ReadJournal(path)
		if err != nil {
			return nil, fmt.Errorf("drill: reading %s: %w", path, err)
		}
		if corrupt > 0 {
			cfg.Logf("drill: %s: %d torn line(s) — expected wreckage from SIGKILL", path, corrupt)
		}
		journals = append(journals, recs)
	}

	th := Thresholds{
		RejoinBound:   cfg.RejoinBound,
		GoodputFrac:   cfg.GoodputFrac,
		QualityFloor:  cfg.QualityFloor,
		BaselineEnd:   baselineEnd(events, cfg.Duration),
		RecoveryStart: cfg.Duration * 3 / 4,
		End:           cfg.Duration,
		Kills:         kills,
	}
	recMu.Lock()
	defer recMu.Unlock()
	rep := Evaluate(records, journals, counters, rejoins, th)
	rep.Seed = cfg.Seed
	rep.Events = events
	return rep, nil
}

// baselineEnd closes the pre-fault measurement window: the first fault's
// onset, or a quarter of the horizon if the schedule is empty.
func baselineEnd(events []Event, horizon time.Duration) time.Duration {
	if len(events) == 0 {
		return horizon / 4
	}
	return events[0].At
}

// boot launches the replicas and the gateway and waits for health.
func (f *fleet) boot() error {
	cfg := f.cfg
	ports, err := freePorts(cfg.Replicas + 1)
	if err != nil {
		return err
	}
	for i := 0; i < cfg.Replicas; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", ports[i])
		journal := filepath.Join(cfg.WorkDir, fmt.Sprintf("replica%d.journal", i))
		args := []string{
			"-addr", addr,
			"-concurrency", strconv.Itoa(replicaConcurrency),
			"-timeout", "5s",
			"-drain-timeout", "2s",
			"-journal", journal,
		}
		if cfg.Governed {
			args = append(args, "-governor")
		}
		p, err := newProc(fmt.Sprintf("replica%d", i), cfg.GeservePath, args,
			filepath.Join(cfg.WorkDir, fmt.Sprintf("replica%d.log", i)))
		if err != nil {
			return err
		}
		if err := p.start(); err != nil {
			return err
		}
		f.replicas = append(f.replicas, p)
		f.repAddrs = append(f.repAddrs, "http://"+addr)
		f.journals = append(f.journals, journal)
	}
	for _, addr := range f.repAddrs {
		if err := waitHealthy(f.client, addr+"/healthz", 10*time.Second); err != nil {
			return err
		}
	}

	gateAddr := fmt.Sprintf("127.0.0.1:%d", ports[cfg.Replicas])
	f.gateURL = "http://" + gateAddr
	gate, err := newProc("gegate", cfg.GegatePath, []string{
		"-addr", gateAddr,
		"-replicas", strings.Join(f.repAddrs, ","),
		"-probe-interval", "100ms",
		"-probe-timeout", "500ms",
		"-breaker-failures", "3",
		"-breaker-open", "500ms",
		"-rejoin-ramp-steps", strconv.Itoa(rampSteps),
		"-rejoin-ramp-step", rampStep.String(),
		"-retry-burst", "64",
		"-timeout", "10s",
	}, filepath.Join(cfg.WorkDir, "gegate.log"))
	if err != nil {
		return err
	}
	if err := gate.start(); err != nil {
		return err
	}
	f.gate = gate
	return waitHealthy(f.client, f.gateURL+"/healthz", 10*time.Second)
}

// drive offers open-loop traffic at cfg.Rate until the horizon, stamping
// each request with a seeded trace ID and recording the client-visible
// outcome.
func (f *fleet) drive(start time.Time, record func(RequestRecord), done chan<- struct{}) {
	defer close(done)
	src := rng.New(f.cfg.Seed ^ 0x7ea11ced)
	interval := time.Duration(float64(time.Second) / f.cfg.Rate)
	body := []byte(`{"DurationSec":0.05,"ArrivalRate":40,"Cores":2}`)
	var wg sync.WaitGroup
	for fire := interval; fire < f.cfg.Duration; fire += interval {
		id := src.Uint64() | 1 // the zero trace ID means "no trace"
		if d := time.Until(start.Add(fire)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(offset time.Duration, trace uint64) {
			defer wg.Done()
			record(f.oneRequest(offset, trace, body))
		}(fire, id)
	}
	wg.Wait()
}

func (f *fleet) oneRequest(offset time.Duration, trace uint64, body []byte) RequestRecord {
	rec := RequestRecord{Offset: offset, TraceID: fmt.Sprintf("%016x", trace)}
	req, err := http.NewRequest(http.MethodPost, f.gateURL+"/v1/run", strings.NewReader(string(body)))
	if err != nil {
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.HeaderTraceID, rec.TraceID)
	resp, err := f.client.Do(req)
	if err != nil {
		return rec // Status 0: transport error
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	rec.Status = resp.StatusCode
	if q := resp.Header.Get("X-GE-Quality"); q != "" {
		if v, err := strconv.ParseFloat(q, 64); err == nil {
			rec.Quality, rec.HasQuality = v, true
		}
	}
	return rec
}

// execute runs the fault schedule against the fleet, measuring each
// faulted replica's rejoin (relaunch/resume → gateway probe verdict up).
func (f *fleet) execute(start time.Time, events []Event) (rejoins []Rejoin, kills int, err error) {
	logf := f.cfg.Logf
	for _, e := range events {
		if d := time.Until(start.Add(e.At)); d > 0 {
			time.Sleep(d)
		}
		switch e.Kind {
		case Kill:
			kills++
			p := f.replicas[e.Target]
			logf("drill: %v kill replica%d (pid %d), down for %v", e.At, e.Target, p.pid(), e.Dur)
			if err := p.kill(); err != nil {
				return rejoins, kills, err
			}
			time.Sleep(e.Dur)
			if err := p.start(); err != nil {
				return rejoins, kills, err
			}
			relaunch := time.Now()
			if err := waitHealthy(f.client, f.repAddrs[e.Target]+"/healthz", 10*time.Second); err != nil {
				return rejoins, kills, err
			}
			down, werr := f.waitProbeUp(e.Target, relaunch)
			if werr != nil {
				return rejoins, kills, werr
			}
			rejoins = append(rejoins, Rejoin{Replica: e.Target, Down: down})
			logf("drill: replica%d rejoined %v after relaunch (incarnation %d)",
				e.Target, down.Round(time.Millisecond), p.incarnations)
		case Pause:
			p := f.replicas[e.Target]
			logf("drill: %v pause replica%d for %v", e.At, e.Target, e.Dur)
			if err := p.pause(); err != nil {
				return rejoins, kills, err
			}
			time.Sleep(e.Dur)
			if err := p.resume(); err != nil {
				return rejoins, kills, err
			}
			// A pause long enough for the probe to notice produces a rejoin
			// too; a short one the gateway never saw is not an error.
			if up, _ := f.probeUp(e.Target); !up {
				resumed := time.Now()
				down, werr := f.waitProbeUp(e.Target, resumed)
				if werr != nil {
					return rejoins, kills, werr
				}
				rejoins = append(rejoins, Rejoin{Replica: e.Target, Down: down})
			}
		case Rolling:
			logf("drill: %v rolling restart of %d replicas", e.At, len(f.replicas))
			for i, p := range f.replicas {
				if serr := p.stop(5 * time.Second); serr != nil {
					logf("drill: %v", serr)
				}
				if err := p.start(); err != nil {
					return rejoins, kills, err
				}
				relaunch := time.Now()
				if err := waitHealthy(f.client, f.repAddrs[i]+"/healthz", 10*time.Second); err != nil {
					return rejoins, kills, err
				}
				down, werr := f.waitProbeUp(i, relaunch)
				if werr != nil {
					return rejoins, kills, werr
				}
				rejoins = append(rejoins, Rejoin{Replica: i, Down: down})
			}
		}
	}
	return rejoins, kills, nil
}

// probeUp reads the gateway's probe verdict for one replica.
func (f *fleet) probeUp(idx int) (bool, error) {
	counters, err := scrapeMetrics(f.client, f.gateURL)
	if err != nil {
		return false, err
	}
	return counters[fmt.Sprintf("replica%d_probe_ok", idx)] == 1, nil
}

// waitProbeUp polls until the gateway's probe verdict for the replica
// flips up, returning how long it took from since.
func (f *fleet) waitProbeUp(idx int, since time.Time) (time.Duration, error) {
	deadline := since.Add(f.cfg.RejoinBound + 5*time.Second)
	for time.Now().Before(deadline) {
		up, err := f.probeUp(idx)
		if err == nil && up {
			return time.Since(since), nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	// Out of patience: report the elapsed time and let the rejoin-bound
	// invariant fail loudly rather than erroring the whole drill.
	return time.Since(since), nil
}

// scrapeMetrics reads the /metricz exposition at base into a
// counter/gauge map (gauges are truncated to int64).
func scrapeMetrics(client *http.Client, base string) (map[string]int64, error) {
	resp, err := client.Get(base + "/metricz")
	if err != nil {
		return nil, fmt.Errorf("drill: scraping %s metrics: %w", base, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("drill: scraping %s metrics: %w", base, err)
	}
	return parseMetricz(string(raw)), nil
}

// parseMetricz reads the unlabelled `name value` samples of a Prometheus
// text exposition, skipping comments and labelled (histogram bucket)
// lines.
func parseMetricz(text string) map[string]int64 {
	out := make(map[string]int64)
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue
		}
		out[name] = int64(v)
	}
	return out
}

// teardown stops the fleet gracefully; idempotent.
func (f *fleet) teardown() {
	if f.gate != nil {
		_ = f.gate.stop(5 * time.Second)
		f.gate.close()
		f.gate = nil
	}
	for _, p := range f.replicas {
		_ = p.stop(5 * time.Second)
		p.close()
	}
	f.replicas = nil
}

// freePorts reserves n distinct localhost ports by binding and releasing
// them. A race against other processes is possible but the window is
// microseconds, and a boot failure surfaces immediately.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}
