package telemetry

import (
	"fmt"
	"io"
	"sort"
)

// laneBase spaces the tid ranges of different tracks: track t's lanes are
// tids t*laneBase, t*laneBase+1, ... Keeping tids disjoint per track makes
// each track a distinct named row group in Perfetto.
const laneBase = 256

// exportEvent is an Event annotated with the process and lane it renders
// into.
type exportEvent struct {
	Event
	seq  uint64
	pid  int
	lane int
}

// WriteChromeTrace exports the retained events as Chrome trace-event JSON
// ("JSON object format"): one process per BeginProcess mark, one thread
// group per track, and — because spans on a single timeline row must nest —
// overlapping spans within a track are spread across sub-lanes by a greedy
// interval partition, so every emitted thread carries strictly
// non-overlapping, timestamp-sorted events. The output is deterministic:
// no map iteration feeds the encoder.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	evs, firstSeq := t.retained()

	// Resolve process names. Marks made before the retained window still
	// apply: the latest mark at or before firstSeq owns the window start.
	var marks []procMark
	if t != nil {
		marks = t.procs
	}
	procs := []string{"machine"}
	pidAt := func(seq uint64) int { return 0 }
	if len(marks) > 0 {
		procs = procs[:0]
		for _, m := range marks {
			procs = append(procs, m.Name)
		}
		pidAt = func(seq uint64) int {
			// Last mark with Seq <= seq; events before the first mark
			// fold into it.
			return max(sort.Search(len(marks), func(i int) bool { return marks[i].Seq > seq })-1, 0)
		}
	}
	out := make([]exportEvent, len(evs))
	for i, ev := range evs {
		seq := firstSeq + uint64(i)
		out[i] = exportEvent{Event: ev, seq: seq, pid: pidAt(seq)}
	}

	// Greedy lane assignment per (pid, track): sort by begin time, place
	// each span on the first lane whose previous span has ended.
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.pid != b.pid {
			return a.pid < b.pid
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		if a.Begin != b.Begin {
			return a.Begin < b.Begin
		}
		if a.End != b.End {
			return a.End > b.End // longer span first so shorter ones nest
		}
		return a.seq < b.seq
	})
	type groupKey struct {
		pid   int
		track Track
	}
	laneEnds := map[groupKey][]uint64{}
	usedLanes := map[groupKey]int{}
	for i := range out {
		ev := &out[i]
		key := groupKey{ev.pid, ev.Track}
		ends := laneEnds[key]
		lane := -1
		for l, end := range ends {
			if end <= ev.Begin {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(ends)
			ends = append(ends, 0)
		}
		ends[lane] = ev.End
		laneEnds[key] = ends
		ev.lane = lane
		if lane+1 > usedLanes[key] {
			usedLanes[key] = lane + 1
		}
	}

	if _, err := fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...any) error {
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}

	// Metadata: process names, then thread names for every used lane,
	// in deterministic (pid, track, lane) order.
	for pid, name := range procs {
		if err := emit(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%q}}`, pid, name); err != nil {
			return err
		}
		if err := emit(`{"ph":"M","pid":%d,"tid":0,"name":"process_sort_index","args":{"sort_index":%d}}`, pid, pid); err != nil {
			return err
		}
		for tr := Track(0); tr < numTracks; tr++ {
			n := usedLanes[groupKey{pid, tr}]
			for lane := 0; lane < n; lane++ {
				tid := int(tr)*laneBase + lane
				name := tr.String()
				if n > 1 {
					name = fmt.Sprintf("%s/%d", tr, lane)
				}
				if err := emit(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%q}}`, pid, tid, name); err != nil {
					return err
				}
				if err := emit(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`, pid, tid, tid); err != nil {
					return err
				}
			}
		}
	}

	// Complete ("X") events. Timestamps are simulated cycles presented as
	// microseconds — 1 cycle == 1 us keeps Perfetto's zoom math exact.
	// Re-sort into per-(pid,tid) timestamp order so each thread's stream
	// is monotonic in the file as well.
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.pid != b.pid {
			return a.pid < b.pid
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		if a.lane != b.lane {
			return a.lane < b.lane
		}
		if a.Begin != b.Begin {
			return a.Begin < b.Begin
		}
		return a.seq < b.seq
	})
	for i := range out {
		ev := &out[i]
		tid := int(ev.Track)*laneBase + ev.lane
		if err := emit(`{"ph":"X","pid":%d,"tid":%d,"ts":%d,"dur":%d,"name":%q,"args":{%s}}`,
			ev.pid, tid, ev.Begin, ev.End-ev.Begin, ev.Kind.String(), eventArgs(&ev.Event)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// eventArgs renders an event's A/B payload with per-kind field names.
func eventArgs(ev *Event) string {
	switch ev.Kind {
	case KindL2Read, KindL2Write:
		return fmt.Sprintf(`"addr":%d,"miss":%d`, ev.A, ev.B)
	case KindTreeWalk:
		return fmt.Sprintf(`"chunk":%d,"extra_reads":%d`, ev.A, ev.B)
	case KindWriteBack:
		return fmt.Sprintf(`"chunk":%d,"incremental":%d`, ev.A, ev.B)
	case KindHashJob:
		return fmt.Sprintf(`"bytes":%d`, ev.A)
	case KindBusGrant:
		cls := "data"
		if ev.B != 0 {
			cls = "hash"
		}
		return fmt.Sprintf(`"bytes":%d,"class":%q`, ev.A, cls)
	case KindDRAMRead, KindDRAMWrite:
		return fmt.Sprintf(`"bytes":%d`, ev.A)
	}
	return fmt.Sprintf(`"a":%d,"b":%d`, ev.A, ev.B)
}
