package obs

import (
	"bufio"
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promLine matches one sample line of the text exposition format as this
// package emits it: name, optional {label="value"} set, integer value.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? -?[0-9]+$`)

// promBucketLine additionally admits the le="+Inf" closing bucket.
var promBucketLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*_bucket\{le="(\+Inf|[0-9]+)"\} [0-9]+$`)

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("store.compute").Add(7)
	reg.Counter("9starts.with-digit").Inc()
	reg.Gauge("service.inflight").Set(-3)
	h := reg.Hist("http.v1.cluster.hit")
	h.Observe(1)
	h.Observe(5)
	h.Observe(5000)

	tr := NewTracer()
	fakeClock(tr, time.Millisecond)
	tr.StartSpan("store.get", `needs "escaping"? no: sanitized upstream`).End()

	snap := reg.Snapshot()
	snap.Stages = tr.Stages()

	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()

	// Every line is a TYPE comment or a well-formed sample.
	sc := bufio.NewScanner(strings.NewReader(text))
	typed := map[string]string{}
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 || (f[3] != "counter" && f[3] != "gauge" && f[3] != "histogram") {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			typed[f[2]] = f[3]
			continue
		}
		if !promLine.MatchString(line) && !promBucketLine.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
		}
	}

	// Counters carry _total and the sanitized names.
	if typed["store_compute_total"] != "counter" {
		t.Error("store.compute missing as store_compute_total counter")
	}
	if !strings.Contains(text, "store_compute_total 7\n") {
		t.Error("counter value not rendered")
	}
	if typed["_9starts_with_digit_total"] != "counter" {
		t.Errorf("leading digit not sanitized; types = %v", typed)
	}
	if !strings.Contains(text, "service_inflight -3\n") {
		t.Error("negative gauge not rendered")
	}

	// Histogram: cumulative buckets, monotone, closed by +Inf == count.
	var last uint64
	var sawInf bool
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "http_v1_cluster_hit_bucket{") {
			continue
		}
		v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < last {
			t.Errorf("bucket series not cumulative at %q", line)
		}
		last = v
		if strings.Contains(line, `le="+Inf"`) {
			sawInf = true
			if v != 3 {
				t.Errorf("+Inf bucket = %d, want 3 (the count)", v)
			}
		}
	}
	if !sawInf {
		t.Error("histogram missing +Inf bucket")
	}
	if !strings.Contains(text, "http_v1_cluster_hit_sum 5006\n") ||
		!strings.Contains(text, "http_v1_cluster_hit_count 3\n") {
		t.Error("histogram _sum/_count missing or wrong")
	}

	// Stage aggregates render as labelled families with quoted stages.
	if !strings.Contains(text, `stage_count{stage="store.get"} 1`) {
		t.Error("stage_count family missing")
	}
	if !strings.Contains(text, `stage_total_ns{stage="store.get"} 1000000`) {
		t.Error("stage_total_ns family missing or wrong")
	}
}
