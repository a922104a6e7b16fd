package server

import (
	"bytes"
	"math"
	"net/http/httptest"
	"testing"

	"rebudget/internal/core"
)

// FuzzSessionSpec drives the create body through the strict decode
// handleCreate uses and then SessionSpec.validate. Whatever the bytes, it
// must not panic, and a spec it accepts must be one the engines can build:
// at most maxCores cores and apps, and a mechanism core.ParseMechanism
// accepts with a finite fairness floor in [0, 1].
func FuzzSessionSpec(f *testing.F) {
	for _, seed := range []string{
		``,
		`{}`,
		`{"workload":{"fig3":true},"mechanism":"equalshare"}`,
		`{"id":"s1","tenant":"acme/prod","workload":{"category":"CPBB","cores":64,"seed":1},"mechanism":"rebudget-20"}`,
		`{"workload":{"category":"CPBN","cores":257},"mechanism":"balanced"}`,
		`{"workload":{"apps":["mcf","lbm"]},"mechanism":"rebudget","min_ef":0.5}`,
		`{"workload":{"fig3":true},"mechanism":"rebudget","min_ef":0.9}`,
		`{"workload":{"fig3":true},"mechanism":"rebudget-Inf"}`,
		`{"workload":{"fig3":true},"mechanism":"rebudget-1e-320"}`,
		`{"workload":{"fig3":true},"mechanism":"maxefficiency","mode":"sim","sim":{"faults":{"monitor_rate":0.5}}}`,
		`{"workload":{"fig3":true},"mechanism":"equalbudget","unknown":1}`,
		`{"workload":{"fig3":true},"mechanism":"equalbudget"} trailing`,
		`{"workload":{"cores":-3},"mechanism":"equalbudget","ticker_ms":-1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec SessionSpec
		r := httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(body))
		if err := decodeBody(httptest.NewRecorder(), r, &spec); err != nil {
			return
		}
		if err := spec.validate(); err != nil {
			return
		}
		if spec.Workload.Cores > maxCores || len(spec.Workload.Apps) > maxCores {
			t.Fatalf("accepted %d cores and %d apps from %q", spec.Workload.Cores, len(spec.Workload.Apps), body)
		}
		mech, err := core.ParseMechanism(spec.Mechanism, spec.MinEnvyFreeness)
		if err != nil {
			t.Fatalf("accepted mechanism %q (min_ef %g) that does not parse: %v", spec.Mechanism, spec.MinEnvyFreeness, err)
		}
		if r, ok := mech.(core.ReBudget); ok {
			floor, err := r.EffectiveMBRFloor()
			if err != nil || math.IsNaN(floor) || floor < 0 || floor > 1 {
				t.Fatalf("accepted mechanism %q (min_ef %g) with floor %g (%v)", spec.Mechanism, spec.MinEnvyFreeness, floor, err)
			}
		}
	})
}
