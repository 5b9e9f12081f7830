package main

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// stage names one span kind of the traced replay. Every stage span is a
// child of the request's transmit span; each wraps one public call into a
// layer of the program.
type stage uint8

const (
	stTransmit stage = iota // root: the whole request
	stSelect                // selection.Selector.Select
	stAcquire               // edge.Server.AcquireCodec
	stEncode                // semantic.Codec.EncodeWordsInto
	stChannel               // channel.FeatureLink.SendFlatScratch
	stDecode                // edge.Server.Decode
	stMismatch              // edge.Server.RecordTransaction
	stUpdate                // edge.Server.RunUpdate + ApplyRemoteUpdate
	numStages
)

var stageNames = [numStages]string{"transmit", "select", "acquire", "encode", "channel", "decode", "mismatch", "update"}

// span is one timed call. Times are nanoseconds since the tracer started.
type span struct {
	start, end int64
	parent     int32 // index of the parent span, -1 for a root
	req        int32 // request the span belongs to
	stage      stage
}

// tracer keeps every span in memory; they are written out after the run.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(st stage, parent, req int) int {
	t.spans = append(t.spans, span{start: int64(time.Since(t.t0)), parent: int32(parent), req: int32(req), stage: st})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) { t.spans[i].end = int64(time.Since(t.t0)) }

// selfTimes returns each span's duration minus the part its children
// cover, in nanoseconds. Children never overlap here: the replay is
// serial.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// byStage collects self times (in the given unit) per stage.
func (t *tracer) byStage(unit time.Duration) [numStages][]float64 {
	var out [numStages][]float64
	for i, d := range t.selfTimes() {
		st := t.spans[i].stage
		out[st] = append(out[st], float64(d)/float64(unit))
	}
	return out
}

// totals returns the summed duration of root spans and of stage spans.
func (t *tracer) totals() (root, stages int64) {
	for _, s := range t.spans {
		if s.parent < 0 {
			root += s.end - s.start
		} else {
			stages += s.end - s.start
		}
	}
	return root, stages
}

// rootDurations returns every root span's duration in the given unit.
func (t *tracer) rootDurations(unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.parent < 0 {
			out = append(out, float64(s.end-s.start)/float64(unit))
		}
	}
	return out
}

// durations returns the total duration of every span of stage st.
func (t *tracer) duration(st stage) int64 {
	var sum int64
	for _, s := range t.spans {
		if s.stage == st {
			sum += s.end - s.start
		}
	}
	return sum
}

// writeTo writes the spans as tab-separated lines: span index, parent
// index, request, stage name, start and end in nanoseconds.
func (t *tracer) writeTo(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "span\tparent\treq\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.req, stageNames[s.stage], s.start, s.end)
	}
	return bw.Flush()
}
