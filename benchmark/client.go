package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
)

// outcome is what one executed op reports back to the round.
type outcome struct {
	lat     time.Duration
	bytesIn int
	cost    float64 // plan cost; run jobs: report.spent
	covered int     // run jobs: report.covered_tasks; else all of a checked reply's tasks
	err     error   // nil when every check passed
	job     jobTimes
	retries int // run jobs: overtime bins re-issued
}

// jobTimes splits a job op into its client-visible segments.
type jobTimes struct {
	submit, firstFrame, run, fetch time.Duration
	frames                         int
}

// Wire forms, decoded leniently: only the fields the checks read.
type wireSummary struct {
	Uses []struct {
		Cardinality int `json:"cardinality"`
		Count       int `json:"count"`
	} `json:"uses"`
	NumUses        int     `json:"num_uses"`
	NumAssignments int     `json:"num_assignments"`
	Cost           float64 `json:"cost"`
}

type wireDecompose struct {
	Solver  string      `json:"solver"`
	N       int         `json:"n"`
	Summary wireSummary `json:"summary"`
}

type wireBatch struct {
	Results []struct {
		N       int         `json:"n"`
		Summary wireSummary `json:"summary"`
	} `json:"results"`
}

type wireJob struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Report *struct {
		Spent         float64 `json:"spent"`
		Tasks         int     `json:"tasks"`
		CoveredTasks  int     `json:"covered_tasks"`
		OvertimeBins  int     `json:"overtime_bins"`
		AbandonedBins int     `json:"abandoned_bins"`
		Degraded      bool    `json:"degraded"`
		LastError     string  `json:"last_error"`
	} `json:"report"`
}

// checkSummary holds a reply's summary against the oracle: exact cost, use
// and assignment counts, and — a necessary condition the client can verify
// without the plan — that the bins bought deliver at least n·θ of
// transformed reliability mass in total.
func checkSummary(got wireSummary, n int, want expect, threshold float64, m *menu) error {
	if n != want.n {
		return fmt.Errorf("n=%d, want %d", n, want.n)
	}
	if got.Cost != want.cost {
		return fmt.Errorf("n=%d: summary.cost %v, oracle %v", n, got.Cost, want.cost)
	}
	if got.NumUses != want.uses || got.NumAssignments != want.assignments {
		return fmt.Errorf("n=%d: %d uses / %d assignments, oracle %d / %d",
			n, got.NumUses, got.NumAssignments, want.uses, want.assignments)
	}
	mass := 0.0
	for _, u := range got.Uses {
		mass += float64(u.Count*u.Cardinality) * m.weights[u.Cardinality]
	}
	if need := float64(n) * core.Theta(threshold); mass < need*(1-core.RelTol) {
		return fmt.Errorf("n=%d: bins deliver mass %v, threshold needs %v", n, mass, need)
	}
	return nil
}

// worker is one closed-loop client: it owns a reusable body buffer, so a
// multi-megabyte reply is read into the same memory every time.
type worker struct {
	st  *stack
	buf bytes.Buffer
}

// post sends body to path, reads the whole reply into w.buf and requires
// the given status.
func (w *worker) post(path string, body []byte, accept string, want int) error {
	req, err := http.NewRequest(http.MethodPost, w.st.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	return w.do(req, want)
}

func (w *worker) do(req *http.Request, want int) error {
	resp, err := w.st.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	w.buf.Reset()
	if _, err := w.buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("reading reply: %w", err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, firstLine(w.buf.Bytes()))
	}
	return nil
}

// run executes one op and checks its reply.
func (w *worker) run(kind opKind, o *op) outcome {
	switch kind {
	case opBatch:
		return w.batch(o)
	case opJob:
		return w.job(o)
	default:
		return w.decompose(o)
	}
}

func (w *worker) decompose(o *op) (out outcome) {
	accept := ""
	if o.ndjson {
		accept = "application/x-ndjson"
	}
	start := time.Now()
	err := w.post("/v1/decompose", o.body, accept, http.StatusOK)
	out.lat = time.Since(start)
	out.bytesIn = w.buf.Len()
	if err != nil {
		out.err = err
		return out
	}
	head := w.buf.Bytes()
	if o.plan != nil {
		var planBytes []byte
		if head, planBytes, err = splitPlan(head, o.ndjson); err == nil {
			err = o.plan.check(planBytes, o.ndjson)
		}
		if err != nil {
			out.err = err
			return out
		}
	}
	var reply wireDecompose
	if err := json.Unmarshal(head, &reply); err != nil {
		out.err = fmt.Errorf("decoding reply: %w", err)
		return out
	}
	if out.err = checkSummary(reply.Summary, reply.N, o.want[0], o.threshold, o.menu); out.err == nil {
		out.cost, out.covered = reply.Summary.Cost, o.tasks
	}
	return out
}

// splitPlan separates a plan-bearing reply into its plan-less header
// object and the raw plan bytes, without parsing the plan.
func splitPlan(body []byte, ndjson bool) (head, plan []byte, err error) {
	if ndjson {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			return nil, nil, fmt.Errorf("NDJSON reply has no header line")
		}
		return body[:i], body[i+1:], nil
	}
	const field = `,"plan":`
	i := bytes.Index(body[:min(len(body), 4096)], []byte(field))
	if i < 0 || !bytes.HasSuffix(body, []byte("}\n")) {
		return nil, nil, fmt.Errorf("JSON reply has no plan field")
	}
	head = append(append([]byte(nil), body[:i]...), '}')
	return head, body[i+len(field) : len(body)-2], nil
}

// check compares the plan bytes with the reference encoding.
func (r *planRef) check(plan []byte, ndjson bool) error {
	wantLen, wantCRC, form := r.arrayLen, r.arrayCRC, "JSON"
	if ndjson {
		wantLen, wantCRC, form = r.ndjsonLen, r.ndjsonCRC, "NDJSON"
		if lines := bytes.Count(plan, []byte{'\n'}); lines != r.uses {
			return fmt.Errorf("NDJSON plan has %d lines, oracle %d uses", lines, r.uses)
		}
	}
	if len(plan) != wantLen {
		return fmt.Errorf("%s plan is %d bytes, reference encoding %d", form, len(plan), wantLen)
	}
	if crc := crc32.ChecksumIEEE(plan); crc != wantCRC {
		return fmt.Errorf("%s plan bytes differ from the reference encoding (crc %08x, want %08x)", form, crc, wantCRC)
	}
	return nil
}

func (w *worker) batch(o *op) (out outcome) {
	start := time.Now()
	err := w.post("/v1/decompose/batch", o.body, "", http.StatusOK)
	out.lat = time.Since(start)
	out.bytesIn = w.buf.Len()
	if err != nil {
		out.err = err
		return out
	}
	var reply wireBatch
	if err := json.Unmarshal(w.buf.Bytes(), &reply); err != nil {
		out.err = fmt.Errorf("decoding reply: %w", err)
		return out
	}
	if len(reply.Results) != len(o.want) {
		out.err = fmt.Errorf("%d results for %d instances", len(reply.Results), len(o.want))
		return out
	}
	for i, r := range reply.Results {
		if err := checkSummary(r.Summary, r.N, o.want[i], o.threshold, o.menu); err != nil {
			out.err = fmt.Errorf("instance %d: %w", i, err)
			return out
		}
		out.cost += r.Summary.Cost
	}
	out.covered = o.tasks
	return out
}

// job submits a run job, follows its event stream to the terminal frame,
// then fetches the status — the requester's whole wait.
func (w *worker) job(o *op) (out outcome) {
	start := time.Now()
	err := w.post("/v1/jobs", o.body, "", http.StatusAccepted)
	out.job.submit = time.Since(start)
	out.bytesIn = w.buf.Len()
	var st wireJob
	if err == nil {
		err = json.Unmarshal(w.buf.Bytes(), &st)
	}
	if err != nil {
		out.err, out.lat = err, time.Since(start)
		return out
	}

	terminal, n, err := w.follow(st.ID, &out.job)
	out.job.run = time.Since(start) - out.job.submit
	out.bytesIn += n
	if err == nil && terminal != "done" {
		err = fmt.Errorf("job %s: terminal frame %q", st.ID, terminal)
	}
	if err != nil {
		out.err, out.lat = err, time.Since(start)
		return out
	}

	fetchStart := time.Now()
	req, err := http.NewRequest(http.MethodGet, w.st.url+"/v1/jobs/"+st.ID, nil)
	if err == nil {
		err = w.do(req, http.StatusOK)
	}
	out.job.fetch = time.Since(fetchStart)
	out.lat = time.Since(start)
	out.bytesIn += w.buf.Len()
	if err == nil {
		st = wireJob{}
		err = json.Unmarshal(w.buf.Bytes(), &st)
	}
	switch {
	case err != nil:
		out.err = err
	case st.State != "done" || st.Report == nil:
		out.err = fmt.Errorf("job %s: state %q (%s), report present: %v", st.ID, st.State, st.Error, st.Report != nil)
	case st.Report.Degraded:
		out.err = fmt.Errorf("job %s degraded: %s", st.ID, st.Report.LastError)
	case st.Report.Tasks != o.tasks:
		out.err = fmt.Errorf("job %s: report covers %d tasks, want %d", st.ID, st.Report.Tasks, o.tasks)
	}
	if out.err == nil {
		out.cost, out.covered = st.Report.Spent, st.Report.CoveredTasks
		out.retries = st.Report.OvertimeBins - st.Report.AbandonedBins
	}
	return out
}

// follow reads GET /v1/jobs/{id}/events to its terminal frame and returns
// that frame's event name and the bytes read.
func (w *worker) follow(id string, jt *jobTimes) (terminal string, n int, err error) {
	start := time.Now()
	resp, err := w.st.client.Get(w.st.url + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("events status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := br.ReadString('\n')
		n += len(line)
		if err != nil {
			return "", n, fmt.Errorf("event stream of %s ended before a terminal frame: %w", id, err)
		}
		switch line = strings.TrimRight(line, "\n"); {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case line == "" && event != "":
			jt.frames++
			if jt.frames == 1 {
				jt.firstFrame = time.Since(start)
			}
			if event != "progress" {
				// Drain to EOF so the connection goes back to the pool.
				m, _ := io.Copy(io.Discard, br)
				return event, n + int(m), nil
			}
			event = ""
		}
	}
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	return string(b[:min(len(b), 200)])
}
