package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/dynamic"
	"repro/internal/resultio"
	"repro/internal/service"
	"repro/internal/tenant"
	"repro/internal/vrptw"
)

// The service-mixed workload: a durable in-process service on loopback
// HTTP, fed open-loop from a seeded arrival schedule.
const (
	// nominalRate is the fixed offered rate, in jobs per second.
	nominalRate = 10.0
	// distinctJobs is how many different jobs the schedule draws; each
	// recurs about nominalRate*seconds/distinctJobs times over a run, so
	// every run offers the same balanced mix whatever the seed.
	distinctJobs = 48
	// mutateShare of the distinct jobs get one PATCH batch while they are
	// live.
	mutateShare = 0.5
	jobEvals    = 20000
	// jobCkptEvery gives a 100-iteration job barriers at iterations 25,
	// 50 and 75, the epochs a live mutation can land on.
	jobCkptEvery = 25
	// instancePool is how many distinct instances the jobs draw from.
	instancePool = 6
	// jobDeadline is the limit a job must meet; a job shed or cut by it
	// counts as failed.
	jobDeadline = 20.0
	// genLateLimit: a run whose arrival generator ran later than this at
	// p90 did not offer the load it claims and is invalid.
	genLateLimit = 20 * time.Millisecond
	// pollRate is the rate of status polls beside the submits, per second.
	pollRate = 20.0
)

// tenants are the two tenants, weighted 3:1, with no rate limits.
var tenants = []struct {
	name, key string
	weight    int
}{{"gold", "gold-key", 3}, {"bronze", "bronze-key", 1}}

// arrival is one scheduled job of the open-loop schedule.
type arrival struct {
	at     time.Duration // offset from the start of the measured window
	job    int           // which of the schedule's distinct jobs this is
	tenant int
	inst   int
	seed   uint64
	mutate bool
}

// arrivals draws the seeded schedule: n jobs at the given rate, each
// offset from its slot by up to a quarter of the interval. The jobs are
// repeats of `distinct` different ones (a multiple of instancePool; tenant
// uniform, instances in turn, the share of each instance's jobs mutated),
// dealt out in rounds of a fresh permutation each, so every distinct job
// recurs about equally often, spread over the run.
func arrivals(seed uint64, rate float64, n, distinct int, share float64) []arrival {
	r := workloadRand(seed, 4)
	jobs := make([]arrival, distinct)
	perInstance := distinct / instancePool
	for i := range jobs {
		jobs[i] = arrival{
			job:    i,
			tenant: r.IntN(len(tenants)),
			inst:   i % instancePool,
			seed:   r.Uint64(),
			mutate: i/instancePool < int(share*float64(perInstance)+0.5),
		}
	}
	gap := float64(time.Second) / rate
	out := make([]arrival, 0, n)
	for len(out) < n {
		for _, i := range r.Perm(distinct) {
			if len(out) == n {
				break
			}
			a := jobs[i]
			a.at = time.Duration((float64(len(out)) + 0.5 + (r.Float64()-0.5)/2) * gap)
			out = append(out, a)
		}
	}
	return out
}

// svcClasses are the classes of the service's instance pool. A job's
// set-up time depends on its class, so the latency distribution has a mode
// per class; two R1 instances for every C2 one keep the medians inside the
// R1 mode instead of between the two.
var svcClasses = []vrptw.Class{vrptw.R1, vrptw.R1, vrptw.C2}

// svcInstances are the pool's generator specs, derived from the seed.
func svcInstances(seed uint64) []service.InstanceSpec {
	r := workloadRand(seed, 5)
	out := make([]service.InstanceSpec, instancePool)
	for i := range out {
		out[i] = service.InstanceSpec{Class: svcClasses[i%len(svcClasses)].String(), N: nCustomers, Seed: r.Uint64() >> 16}
	}
	return out
}

// svcEnv is one booted service with its HTTP front and clients.
type svcEnv struct {
	dir  string
	svc  *service.Service
	srv  *http.Server
	base string
	req  *http.Client // request/response calls, at most nproc connections
	sse  *http.Client // event-stream subscriptions and PATCHes, one connection each
	ins  []*vrptw.Instance
	spec []service.InstanceSpec
}

// bootService opens a durable service on an empty data directory inside
// the working tree and serves it on a loopback port.
func bootService(seed uint64, k int) (*svcEnv, error) {
	dir := filepath.Join(buildDir(), fmt.Sprintf("perfbench-svc-%d-%d", os.Getpid(), k))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	reg := tenant.NewRegistry(nil)
	for _, t := range tenants {
		reg.Add(tenant.Policy{Name: t.name, Weight: t.weight}, t.key)
	}
	svc, err := service.Open(service.Config{
		Workers:         runtime.NumCPU(),
		QueueDepth:      1024,
		RetainJobs:      64,
		MaxEvaluations:  -1,
		DataDir:         dir,
		CheckpointEvery: jobCkptEvery,
		Tenants:         reg,
		RetryAfter:      100 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	e := &svcEnv{
		dir:  dir,
		svc:  svc,
		srv:  &http.Server{Handler: svc.Handler()},
		base: "http://" + ln.Addr().String(),
		req: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		}},
		sse:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
		spec: svcInstances(seed),
	}
	go e.srv.Serve(ln) //nolint:errcheck // returns http.ErrServerClosed on close
	for _, sp := range e.spec {
		c, err := vrptw.ParseClass(sp.Class)
		if err != nil {
			e.close()
			return nil, err
		}
		in, err := vrptw.Generate(vrptw.GenConfig{Class: c, N: sp.N, Seed: sp.Seed})
		if err != nil {
			e.close()
			return nil, err
		}
		e.ins = append(e.ins, in)
	}
	return e, nil
}

// close stops the HTTP server and the service and removes the data dir.
func (e *svcEnv) close() {
	e.srv.Close()
	e.svc.Close()
	e.req.CloseIdleConnections()
	e.sse.CloseIdleConnections()
	os.RemoveAll(e.dir)
}

// buildDir is the benchmark's build and data directory inside the working
// tree.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// call does one JSON request with the tenant's bearer key and decodes a
// 2xx body into out. It returns the status code and the round-trip time.
func (e *svcEnv) call(method, path, key string, body, out any) (int, time.Duration, error) {
	return e.callOn(e.req, method, path, key, body, out)
}

// callOn is call on the given client.
func (e *svcEnv) callOn(c *http.Client, method, path, key string, body, out any) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, e.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, time.Since(t0), err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	if err != nil {
		return resp.StatusCode, d, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, d, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, d, fmt.Errorf("%s %s: decoding: %w", method, path, err)
		}
	}
	return resp.StatusCode, d, nil
}

// jobTimes is what one job's life measured, relative to when it was due.
type jobTimes struct {
	job                        int
	firstPoint, result, mutate time.Duration
	// Round trips of the job's submit, PATCH and result calls.
	submit, patchCall, resultCall time.Duration
	status                        service.Status
	hv                            float64
	rejected                      bool
}

// runJob submits one job, mutates it if the schedule says so, follows its
// event stream, and fetches and checks its result. due
// is when the schedule wanted it sent; submitted, when set, learns the
// job's ID as soon as it is accepted.
func (e *svcEnv) runJob(a arrival, due time.Time, submitted func(id string)) (jobTimes, error) {
	jt := jobTimes{job: a.job}
	t := tenants[a.tenant]
	spec := service.JobSpec{
		Instance:        e.spec[a.inst],
		Seed:            a.seed,
		MaxEvaluations:  jobEvals,
		GranularK:       granularK,
		DeadlineSeconds: jobDeadline,
	}
	var sub service.SubmitResponse
	code, d, err := e.call(http.MethodPost, "/v1/jobs", t.key, spec, &sub)
	jt.submit = d
	if err != nil {
		jt.rejected = code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
		return jt, fmt.Errorf("submit: %w", err)
	}
	if submitted != nil {
		submitted(sub.ID)
	}
	// The PATCH goes out as soon as the job is accepted, while it is queued
	// or building its neighbour lists and first solution, so the batch is
	// pinned to a barrier the run has not reached yet. It goes over a
	// connection of its own: queued behind other calls for a pooled one,
	// it could reach a busy host's service after the job has ended.
	var muts []dynamic.Mutation
	var patchSent time.Time
	if a.mutate {
		muts = probeMutations(e.ins[a.inst], workloadRand(a.seed, 6))
		patchSent = time.Now()
		_, d, err := e.callOn(e.sse, http.MethodPatch, "/v1/jobs/"+sub.ID+"/instance", t.key,
			service.MutateRequest{Mutations: muts}, nil)
		if err != nil {
			return jt, fmt.Errorf("mutate: %w", err)
		}
		jt.patchCall = d
	}

	resp, err := e.sse.Get(e.base + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		return jt, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		name, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		switch name {
		case "archive_accept":
			if jt.firstPoint == 0 {
				jt.firstPoint = time.Since(due)
			}
		case "mutations":
			jt.mutate = time.Since(patchSent)
		}
	}
	if err := sc.Err(); err != nil {
		return jt, fmt.Errorf("events: %w", err)
	}

	var ff resultio.FrontFile
	if _, jt.resultCall, err = e.call(http.MethodGet, "/v1/jobs/"+sub.ID+"/result", t.key, nil, &ff); err != nil {
		return jt, err
	}
	in := e.ins[a.inst]
	if a.mutate {
		if jt.mutate == 0 {
			return jt, fmt.Errorf("job %s ended before its mutation applied", sub.ID)
		}
		if in, err = dynamic.Project(in, muts); err != nil {
			return jt, err
		}
	}
	front := make([]point, len(ff.Solutions))
	for i, s := range ff.Solutions {
		front[i] = point{dist: s.Distance, veh: s.Vehicles, tard: s.Tardiness, routes: s.Routes}
	}
	if err := checkFront(in, front); err != nil {
		return jt, fmt.Errorf("job %s result: %w", sub.ID, err)
	}
	jt.result = time.Since(due)
	jt.hv = frontHV(in, front)

	if _, _, err := e.call(http.MethodGet, "/v1/jobs/"+sub.ID, t.key, nil, &jt.status); err != nil {
		return jt, err
	}
	st := jt.status
	switch {
	case st.State != service.StateDone:
		return jt, fmt.Errorf("job %s ended %s: %s", sub.ID, st.State, st.Error)
	case st.Evaluations < jobEvals:
		return jt, fmt.Errorf("job %s stopped after %d of %d evaluations", sub.ID, st.Evaluations, jobEvals)
	case st.StartedAt == nil || st.FinishedAt == nil:
		return jt, fmt.Errorf("job %s has no start or finish stamp", sub.ID)
	case jt.firstPoint == 0:
		return jt, fmt.Errorf("job %s streamed no accepted point", sub.ID)
	}
	return jt, nil
}

// loadOutcome collects one open-loop phase.
type loadOutcome struct {
	jobs     []jobTimes
	arrivals []arrival
	late     []float64 // generator lateness per arrival, ms
	status   []float64 // status poll round trips, ms
	errs     []error
	rejected int
}

// offer runs an arrival schedule against the service: a generator sleeps
// until each job is due and hands it to its own goroutine, while a poller
// reads the status of the most recently submitted jobs beside the
// submits. It returns once every job has ended.
func (e *svcEnv) offer(ctx context.Context, sched []arrival) *loadOutcome {
	out := &loadOutcome{arrivals: sched}
	var mu sync.Mutex
	var live []string
	var wg sync.WaitGroup
	stopPoll, pollDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(pollDone)
		tick := time.NewTicker(time.Duration(float64(time.Second) / pollRate))
		defer tick.Stop()
		k := 0
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
			}
			mu.Lock()
			var id string
			if len(live) > 0 {
				id = live[k%len(live)]
				k++
			}
			mu.Unlock()
			if id == "" {
				continue
			}
			var st service.Status
			if _, d, err := e.call(http.MethodGet, "/v1/jobs/"+id, "", nil, &st); err == nil {
				mu.Lock()
				out.status = append(out.status, msOf(d))
				mu.Unlock()
			}
		}
	}()

	start := time.Now()
	for _, a := range sched {
		due := start.Add(a.at)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		out.late = append(out.late, msOf(time.Since(due)))
		wg.Add(1)
		go func(a arrival, due time.Time) {
			defer wg.Done()
			jt, err := e.runJob(a, due, func(id string) {
				mu.Lock()
				defer mu.Unlock()
				live = append(live, id)
				if len(live) > 4 {
					live = live[1:]
				}
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				out.errs = append(out.errs, err)
				if jt.rejected {
					out.rejected++
				}
				return
			}
			out.jobs = append(out.jobs, jt)
		}(a, due)
	}
	wg.Wait()
	close(stopPoll)
	<-pollDone
	return out
}

// setupService boots the service and warms it with one closed-loop job
// per tenant.
func setupService(ctx context.Context, seed uint64, k int) (*svcEnv, error) {
	e, err := bootService(seed, k)
	if err != nil {
		return nil, err
	}
	warm := []arrival{{tenant: 0, inst: 0, seed: seed}, {tenant: 1, inst: 1, seed: seed + 1}}
	for _, a := range warm {
		if _, err := e.runJob(a, time.Now(), nil); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	return e, nil
}

func runServiceWorkload(ctx context.Context, o opts, res *result) error {
	var e *svcEnv
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		env, err := setupService(ctx, o.seed, k)
		if err != nil {
			return err
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
		if e != nil {
			e.close()
		}
		e = env
	}
	defer e.close()

	n := int(nominalRate * o.seconds.Seconds())
	res.startMeasuring()
	c0 := cpuTime()
	lo := e.offer(ctx, arrivals(o.seed, nominalRate, n, distinctJobs, mutateShare))
	cpu := cpuTime() - c0
	res.attempted += len(lo.arrivals)
	for _, err := range lo.errs {
		res.fail("%v", err)
	}

	// Latencies come from the unmutated jobs, mutate_ms from the mutated
	// ones: a mutated job warm-restarts mid-run, so mixing the two would
	// give the distribution two modes.
	var first, done, mut []float64
	hv := make(map[int]float64)
	var evals int64
	for _, jt := range lo.jobs {
		evals += jt.status.Evaluations
		if jt.mutate > 0 {
			mut = append(mut, msOf(jt.mutate))
			continue
		}
		first = append(first, msOf(jt.firstPoint))
		done = append(done, msOf(jt.result))
		hv[jt.job] = jt.hv
	}
	if len(hv) == 0 {
		return errors.New("no job completed")
	}
	hvSum := 0.0
	for _, v := range hv {
		hvSum += v
	}
	// Evaluations of every completed job per CPU second of the whole
	// process: search, per-job set-up and the service path, and the
	// benchmark's own client and oracle, the same on every commit.
	res.put("evals_per_s", float64(evals)/cpu.Seconds(), "1/s")
	// Each distinct job's front counts once.
	res.put("front_hv", hvSum/float64(len(hv)), "ratio")
	res.putPercentiles("first_point_ms", first, "ms", 0.5)
	res.putPercentiles("result_ms", done, "ms", 0.5)
	res.putPercentiles("mutate_ms", mut, "ms", 0.5)
	res.reportTail("first_point_ms", first)
	res.reportTail("result_ms", done)
	res.reportTail("mutate_ms", mut)

	late90, _ := percentile(lo.late, 0.9)
	res.report["gen_late_ms_p90"] = late90
	res.report["gen_late_ms_max"] = maxOf(lo.late)
	if time.Duration(late90*float64(time.Millisecond)) > genLateLimit {
		res.invalid = append(res.invalid, fmt.Sprintf("arrival generator ran %.1f ms late at p90 (limit %v)", late90, genLateLimit))
	}
	seen := map[int]bool{}
	for _, a := range lo.arrivals {
		seen[a.inst] = true
	}
	res.report["offered_rate_jobs_per_s"] = nominalRate
	res.report["jobs"] = len(lo.arrivals)
	res.report["repeated_instance_share"] = 1 - float64(len(seen))/float64(len(lo.arrivals))
	res.report["rejected"] = lo.rejected
	res.report["status_polls"] = len(lo.status)
	return nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
