package main

import (
	"bufio"
	"strconv"
	"strings"
)

// promSample is one scrape of a Prometheus text exposition: series (name
// plus label set, verbatim) → value.
type promSample map[string]float64

// parseProm reads the text format the daemons render: one "series value"
// per line, '#' lines skipped. A line that does not parse is ignored — the
// harness only reads counters it names.
func parseProm(text string) promSample {
	out := make(promSample)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out
}

// delta returns after−before per series; a series absent before counts from
// zero (labelled counters appear on first increment).
func (after promSample) delta(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// add accumulates another sample into s (summing shards).
func (s promSample) add(o promSample) {
	for k, v := range o {
		s[k] += v
	}
}

// sum totals every series of the metric whose label set contains all the
// given `key="value"` fragments.
func (s promSample) sum(metric string, labels ...string) float64 {
	total := 0.0
	for k, v := range s {
		name, rest := k, ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			name, rest = k[:i], k[i:]
		}
		if name != metric {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}
