package e2e

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"rebudget/internal/server/client"
)

// Sample is one series of a Prometheus text exposition.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Samples is a parsed /metrics scrape.
type Samples []Sample

// ParseMetrics parses the text exposition internal/expo renders: comment
// lines are skipped, every other line is `name value` or
// `name{k="v",...} value` with label values quoted as strconv.Quote does.
func ParseMetrics(text string) (Samples, error) {
	var out Samples
	for _, line := range strings.Split(text, "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func parseSample(line string) (Sample, error) {
	end := strings.IndexAny(line, "{ ")
	if end <= 0 {
		return Sample{}, errors.New("no sample value")
	}
	s := Sample{Name: line[:end]}
	rest := line[end:]
	if rest[0] == '{' {
		s.Labels = map[string]string{}
		for rest = rest[1:]; !strings.HasPrefix(rest, "}"); rest = strings.TrimPrefix(rest, ",") {
			key, after, ok := strings.Cut(rest, "=")
			if !ok {
				return Sample{}, errors.New("unterminated label set")
			}
			quoted, err := strconv.QuotedPrefix(after)
			if err != nil {
				return Sample{}, fmt.Errorf("label %s: %w", key, err)
			}
			if s.Labels[key], err = strconv.Unquote(quoted); err != nil {
				return Sample{}, fmt.Errorf("label %s: %w", key, err)
			}
			rest = after[len(quoted):]
		}
		rest = rest[1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return Sample{}, err
	}
	s.Value = v
	return s, nil
}

// Sum adds up the series named exactly name that carry every label pair in
// sel (in any order, among any others), and reports how many matched.
func (ss Samples) Sum(name string, sel map[string]string) (sum float64, matched int) {
next:
	for _, s := range ss {
		if s.Name != name {
			continue
		}
		for k, v := range sel {
			if got, ok := s.Labels[k]; !ok || got != v {
				continue next
			}
		}
		sum += s.Value
		matched++
	}
	return sum, matched
}

// Check asserts that the series Name selects with Labels exist and sum to
// at least Min. Every gate the smokes put on /metrics is a lower bound, so
// that is the one comparison.
type Check struct {
	Name   string
	Labels map[string]string
	Min    float64
}

// AtLeast is a Check on name, narrowed by label key/value pairs.
func AtLeast(name string, min float64, labelKV ...string) Check {
	c := Check{Name: name, Min: min, Labels: map[string]string{}}
	for i := 0; i+1 < len(labelKV); i += 2 {
		c.Labels[labelKV[i]] = labelKV[i+1]
	}
	return c
}

func (c Check) String() string {
	return fmt.Sprintf("%s%s >= %g", c.Name, strings.TrimPrefix(fmt.Sprint(c.Labels), "map"), c.Min)
}

// Verify evaluates every check against the scrape and returns the first
// failure: a selector that matches nothing, or a sum below its bound.
func (ss Samples) Verify(checks ...Check) error {
	for _, c := range checks {
		got, matched := ss.Sum(c.Name, c.Labels)
		if matched == 0 {
			return fmt.Errorf("/metrics has no series for %s", c)
		}
		if got < c.Min {
			return fmt.Errorf("want %s, got %g", c, got)
		}
	}
	return nil
}

// Scrape fetches and parses base's /metrics.
func Scrape(ctx context.Context, base string) (Samples, error) {
	text, err := client.New(base, client.WithTimeout(10*time.Second)).Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	return ParseMetrics(text)
}

// Holds scrapes base once and returns the first check that fails, or nil.
func (h *Harness) Holds(base string, checks ...Check) error {
	ss, err := Scrape(h.Ctx, base)
	if err == nil {
		err = ss.Verify(checks...)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", base, err)
	}
	return nil
}

// Metrics fails the scenario unless the checks hold on one scrape of base.
func (h *Harness) Metrics(base string, checks ...Check) { h.Must(h.Holds(base, checks...)) }

// Await re-scrapes base every interval until the checks hold, and fails the
// scenario once timeout has passed.
func (h *Harness) Await(base string, timeout, interval time.Duration, checks ...Check) {
	h.Eventually(timeout, interval, func() error { return h.Holds(base, checks...) })
}
