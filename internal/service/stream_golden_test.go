package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/binset"
	"repro/internal/core"
)

// streamJobGolden is one testdata/stream_job_golden case: the batches a
// "kind":"stream" job was submitted with, and the summary and plan array
// the release that still ran stream jobs served for it, byte for byte.
type streamJobGolden struct {
	Menu      string          `json:"menu"`
	Threshold float64         `json:"threshold"`
	BlockSize int             `json:"block_size"`
	Batches   [][]int         `json:"batches"`
	Summary   json.RawMessage `json:"summary"`
	Plan      json.RawMessage `json:"plan,omitempty"`
}

func streamGoldenMenus() map[string]core.BinSet {
	return map[string]core.BinSet{
		"table1":  binset.Table1(),
		"jelly20": binset.MustJelly(20),
		"smic20":  binset.MustSMIC(20),
	}
}

// TestSessionServesStreamJobPlan: a /v1/streams session fed a stream job's
// batches — open, one append per batch, flush — serves the plan array and
// summary the stream job served, byte for byte. The goldens cover empty
// batches, exact blocks, batches straddling blocks, one task per batch
// and shuffled non-contiguous ids, on three menus at three thresholds.
func TestSessionServesStreamJobPlan(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "stream_job_golden", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no stream job goldens")
	}
	_, ts := newTestServer(t)
	menus := streamGoldenMenus()
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			var g streamJobGolden
			if err := json.Unmarshal(data, &g); err != nil {
				t.Fatal(err)
			}
			bins, err := json.Marshal(menus[g.Menu].Bins())
			if err != nil {
				t.Fatal(err)
			}
			resp, raw := postJSON(t, ts.URL+"/v1/streams", fmt.Sprintf(`{"bins":%s,"threshold":%v}`, bins, g.Threshold))
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("open: %d %s", resp.StatusCode, raw)
			}
			var st StreamStatus
			if err := json.Unmarshal(raw, &st); err != nil {
				t.Fatal(err)
			}
			if st.BlockSize != g.BlockSize {
				t.Fatalf("session block size %d, golden %d", st.BlockSize, g.BlockSize)
			}
			base := ts.URL + "/v1/streams/" + st.ID
			for i, batch := range g.Batches {
				body, err := json.Marshal(streamAppendRequest{Tasks: batch})
				if err != nil {
					t.Fatal(err)
				}
				if resp, raw := postJSON(t, base+"/tasks", string(body)); resp.StatusCode != http.StatusOK {
					t.Fatalf("append %d: %d %s", i, resp.StatusCode, raw)
				}
			}
			if resp, raw := postJSON(t, base+"/flush", ""); resp.StatusCode != http.StatusOK {
				t.Fatalf("flush: %d %s", resp.StatusCode, raw)
			}
			var served map[string]json.RawMessage
			if err := json.Unmarshal(httpGetRaw(t, base+"?include_plan=true"), &served); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(served["summary"], g.Summary) {
				t.Errorf("summary\n got %s\nwant %s", served["summary"], g.Summary)
			}
			if !bytes.Equal(served["plan"], g.Plan) {
				t.Errorf("plan\n got %.300s\nwant %.300s", served["plan"], g.Plan)
			}
		})
	}
}
