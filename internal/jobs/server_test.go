package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestAPI(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ts := httptest.NewServer(NewServer(m).Handler())
	t.Cleanup(ts.Close)
	return m, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

const runSpecJSON = `{
  "tenant": "acme",
  "name": "demo",
  "run": {
    "options": {"counts": [6, 6], "lambda": 4, "gamma": 4, "seed": 1},
    "steps": 2000
  }
}`

func TestServerSubmitAndWatch(t *testing.T) {
	m, ts := newTestAPI(t, Config{Workers: 2})

	resp, body := postJSON(t, ts.URL+"/v1/jobs", runSpecJSON)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Tenant != "acme" || st.Name != "demo" {
		t.Fatalf("submit status: %+v", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}

	// Poll the job to completion over HTTP.
	deadline := time.Now().Add(30 * time.Second)
	for {
		getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &st)
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	if st.State != StateDone || st.Result == nil || st.Result.Snap == nil || st.Result.Snap.Steps != 2000 {
		t.Fatalf("final status: %+v", st)
	}

	// The manager agrees with the HTTP view.
	if direct, err := m.Status(st.ID); err != nil || direct.State != StateDone {
		t.Fatalf("direct status: %+v, %v", direct, err)
	}
}

func TestServerListAndFilter(t *testing.T) {
	m, ts := newTestAPI(t, Config{Workers: 2})
	for _, tenant := range []string{"a", "a", "b"} {
		if _, err := m.Submit(smallRun(tenant, 1)); err != nil {
			t.Fatal(err)
		}
	}
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 3 {
		t.Fatalf("list = %d jobs, want 3", len(list.Jobs))
	}
	// Submission order: zero-padded IDs ascend.
	for i := 1; i < len(list.Jobs); i++ {
		if list.Jobs[i-1].ID >= list.Jobs[i].ID {
			t.Fatalf("list out of order: %s before %s", list.Jobs[i-1].ID, list.Jobs[i].ID)
		}
	}
	getJSON(t, ts.URL+"/v1/jobs?tenant=b", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].Tenant != "b" {
		t.Fatalf("tenant filter = %+v", list.Jobs)
	}
}

func TestServerValidationErrors(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	cases := []struct {
		name, body, wantFragment string
		wantCode                 int
	}{
		{"malformed JSON", `{`, "malformed spec", http.StatusBadRequest},
		{"unknown field is reported", `{"run": {"options": {"counts": [4], "lambda": 2, "gamma": 2, "bogus": 1}, "steps": 10}}`, "bogus", http.StatusBadRequest},
		{"no work", `{}`, "exactly one of", http.StatusBadRequest},
		{"no counts", `{"run": {"options": {"lambda": 2, "gamma": 2}, "steps": 10}}`, "counts", http.StatusBadRequest},
		{"bad lambda", `{"run": {"options": {"counts": [4], "gamma": 2}, "steps": 10}}`, "lambda", http.StatusBadRequest},
		{"bad gamma", `{"run": {"options": {"counts": [4], "lambda": 2}, "steps": 10}}`, "gamma", http.StatusBadRequest},
		{"no steps", `{"run": {"options": {"counts": [4], "lambda": 2, "gamma": 2}}}`, "steps", http.StatusBadRequest},
		{"bad layout", `{"run": {"options": {"counts": [4], "lambda": 2, "gamma": 2, "layout": "ring"}, "steps": 10}}`, "layout", http.StatusBadRequest},
		{"empty sweep", `{"sweep": {"counts": [4], "steps": 10}}`, "lambdas", http.StatusBadRequest},
		{"over-limit body", `{"name": "` + strings.Repeat("x", maxSpecBytes) + `"}`, "too large", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/jobs", tc.body)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("code = %d, want %d (%s)", resp.StatusCode, tc.wantCode, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("error body is not the envelope: %s", body)
			}
			if !strings.Contains(eb.Error, tc.wantFragment) {
				t.Fatalf("error %q does not mention %q", eb.Error, tc.wantFragment)
			}
		})
	}
}

func TestServerNotFoundAndConflict(t *testing.T) {
	m, ts := newTestAPI(t, Config{Workers: 2})

	if resp := getJSON(t, ts.URL+"/v1/jobs/j99999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job GET = %d, want 404", resp.StatusCode)
	}

	st, err := m.Submit(smallRun("", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, m, st.ID, terminal)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE finished = %d, want 409", resp.StatusCode)
	}
}

func TestServerCancel(t *testing.T) {
	m, ts := newTestAPI(t, Config{Workers: 1})
	// Block the worker so the target job stays queued.
	blocker, err := m.Submit(&Spec{Run: &RunJob{
		Options: smallRun("", 1).Run.Options,
		Steps:   1 << 40,
	}})
	if err != nil {
		t.Fatal(err)
	}
	target, err := m.Submit(smallRun("", 2))
	if err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+target.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.State != StateCanceled {
		t.Fatalf("DELETE queued = %d %+v", resp.StatusCode, st)
	}

	// Unblock and cancel the running job too.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := waitFor(t, m, blocker.ID, terminal)
	if final.State != StateCanceled {
		t.Fatalf("running cancel via HTTP → %s", final.State)
	}
}

// TestServerEvents follows a job's SSE stream to its terminal frame.
func TestServerEvents(t *testing.T) {
	m, ts := newTestAPI(t, Config{Workers: 2})
	st, err := m.Submit(smallRun("", 1))
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events?interval=5ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("Content-Type = %q", ct)
	}

	var last Status
	frames := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		frames++
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if frames == 0 {
		t.Fatal("no SSE frames received")
	}
	// The stream closes itself after the terminal frame.
	if !last.State.Terminal() {
		t.Fatalf("stream ended on non-terminal state %s", last.State)
	}
	if last.State != StateDone {
		t.Fatalf("final frame state = %s (%s)", last.State, last.Error)
	}

	// Bad interval and unknown job are rejected up front.
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/events?interval=nope", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad interval = %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/jobs/j99999999/events", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events = %d, want 404", resp.StatusCode)
	}
}

func TestServerMethodHandling(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/jobs", strings.NewReader("{}"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /v1/jobs = %d, want 405", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path = %d, want 404", resp.StatusCode)
	}
}
