package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// provisionLeveled provisions the golden spec with a spare complement and
// an explicit rotation epoch.
func provisionLeveled(t *testing.T, baseURL string, seed uint64, spares int, epoch uint64) ProvisionResponse {
	t.Helper()
	resp, body := postJSON(t, baseURL+"/v1/architectures", ProvisionRequest{
		Spec: goldenSpec, SecretHex: goldenSecretHex, Seed: seed,
		Spares: spares, RemapEpoch: epoch,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("leveled provision: status %d: %s", resp.StatusCode, body)
	}
	var pr ProvisionResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestLeveledProvisionEcho: the provision response echoes the leveling
// actually applied, including the server's epoch default, while a plain
// provision's wire encoding stays byte-for-byte free of leveling fields
// (the golden-JSON compatibility contract).
func TestLeveledProvisionEcho(t *testing.T) {
	_, ts := testServer(t)

	pr := provisionLeveled(t, ts.URL, 42, 4, 6)
	if pr.Spares != 4 || pr.RemapEpoch != 6 {
		t.Errorf("echo = (spares %d, epoch %d), want (4, 6)", pr.Spares, pr.RemapEpoch)
	}

	// Spares without an epoch gets the server default.
	pr = provisionLeveled(t, ts.URL, 43, 2, 0)
	if pr.RemapEpoch != defaultRemapEpoch {
		t.Errorf("defaulted epoch = %d, want %d", pr.RemapEpoch, defaultRemapEpoch)
	}

	// A plain provision must not leak leveling fields into its JSON.
	resp, body := postJSON(t, ts.URL+"/v1/architectures", ProvisionRequest{
		Spec: goldenSpec, SecretHex: goldenSecretHex, Seed: 44,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("plain provision: status %d: %s", resp.StatusCode, body)
	}
	for _, forbidden := range []string{"spares", "remap_epoch", "wear_leveling"} {
		if strings.Contains(string(body), forbidden) {
			t.Errorf("plain provision JSON contains %q: %s", forbidden, body)
		}
	}

	// Negative and absurd spare counts are refused with the field named.
	for _, spares := range []int{-1, maxSpares + 1} {
		resp, body := postJSON(t, ts.URL+"/v1/architectures", ProvisionRequest{
			Spec: goldenSpec, SecretHex: goldenSecretHex, Seed: 45, Spares: spares,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spares=%d: status %d, want 400: %s", spares, resp.StatusCode, body)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Field != "spares" {
			t.Errorf("spares=%d: field %q, want spares", spares, er.Field)
		}
	}
}

// TestLeveledStatusBlock: leveled architectures report the wear-leveling
// block; plain ones omit it entirely from the wire encoding.
func TestLeveledStatusBlock(t *testing.T) {
	_, ts := testServer(t)
	pr := provisionLeveled(t, ts.URL, 42, 4, 6)
	postJSON(t, ts.URL+"/v1/architectures/"+pr.ID+"/access", nil)

	_, body := getJSON(t, ts.URL+"/v1/architectures/"+pr.ID)
	var st StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.WearLeveling == nil {
		t.Fatalf("leveled status has no wear_leveling block: %s", body)
	}
	wl := st.WearLeveling
	if wl.Spares != 4 || wl.RemapEpoch != 6 {
		t.Errorf("wear_leveling = (spares %d, epoch %d), want (4, 6)", wl.Spares, wl.RemapEpoch)
	}
	if wl.SparesRemaining < 0 || wl.WearSkew < 0 {
		t.Errorf("wear_leveling reports negative state: %+v", wl)
	}

	plain := provisionGolden(t, ts.URL, 7)
	_, body = getJSON(t, ts.URL+"/v1/architectures/"+plain.ID)
	if strings.Contains(string(body), "wear_leveling") {
		t.Errorf("plain status JSON contains wear_leveling: %s", body)
	}
}

// TestStressEndpoint drives the adversarial stress route: validation with
// named fields, a hot burst that consumes wear without revealing key
// bytes, rotation visible in the response counters, and the wear metrics
// present in the scrape.
func TestStressEndpoint(t *testing.T) {
	s, ts := testServer(t)
	pr := provisionLeveled(t, ts.URL, 42, 4, 3)
	stressURL := ts.URL + "/v1/architectures/" + pr.ID + "/stress"

	// Unknown architecture → 404.
	resp, _ := postJSON(t, ts.URL+"/v1/architectures/arch-999999/stress", StressRequest{Indices: []int{0}})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}

	// A stress body is mandatory — there is no harmless default burst.
	resp, _ = postJSON(t, stressURL, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body: status %d, want 400", resp.StatusCode)
	}

	// Field validation names the offending field.
	for _, tc := range []struct {
		req   StressRequest
		field string
	}{
		{StressRequest{Indices: nil, Pulses: 1}, "indices"},
		{StressRequest{Indices: []int{-1}}, "indices"},
		{StressRequest{Indices: []int{pr.Design.N}}, "indices"},
		{StressRequest{Indices: []int{0}, Pulses: maxStressPulses + 1}, "pulses"},
		{StressRequest{Indices: []int{0}, Pulses: -3}, "pulses"},
	} {
		resp, body := postJSON(t, stressURL, tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400: %s", tc.req, resp.StatusCode, body)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Field != tc.field {
			t.Errorf("%+v: field %q, want %q", tc.req, er.Field, tc.field)
		}
	}

	// A hot targeted burst: wear consumed, no key material in the body.
	sparesBefore, skewBefore := s.hSpares.Count(), s.hWearSkew.Count()
	var last StressResponse
	for i := 0; i < 8; i++ {
		resp, body := postJSON(t, stressURL, StressRequest{
			TempCelsius: 400, Indices: []int{0, 1}, Pulses: 2,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stress %d: status %d: %s", i, resp.StatusCode, body)
		}
		if strings.Contains(string(body), "secret") || strings.Contains(string(body), goldenSecretHex) {
			t.Fatalf("stress response leaks key material: %s", body)
		}
		if err := json.Unmarshal(body, &last); err != nil {
			t.Fatal(err)
		}
		if last.Pulses != 2 {
			t.Errorf("stress %d: pulses = %d, want 2", i, last.Pulses)
		}
	}
	if last.Stressed != 16 {
		t.Errorf("lifetime stressed = %d, want 16 (8 bursts x 2 pulses)", last.Stressed)
	}
	if last.Remaps == 0 {
		t.Error("sustained hot stress never triggered a wear-leveling rotation")
	}
	if got := s.mStressPulses.Value(); got != 16 {
		t.Errorf("lemonaded_stress_pulses_total = %d, want 16", got)
	}

	// Stress does not consume the access budget or reveal through status.
	_, body := getJSON(t, ts.URL+"/v1/architectures/"+pr.ID)
	var st StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Attempts != 0 {
		t.Errorf("stress consumed %d accesses", st.Attempts)
	}
	if st.WearLeveling == nil || st.WearLeveling.Stressed != 16 {
		t.Errorf("status wear_leveling = %+v, want 16 stressed", st.WearLeveling)
	}

	// The wear metrics are in the scrape, and the stress bursts were
	// observed into both wear-leveling histograms.
	resp, body = getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	out := string(body)
	for _, want := range []string{
		"lemonaded_stress_pulses_total 16",
		"lemonaded_wearout_remaps_total",
		"lemonaded_leveled_spares_remaining_count",
		"lemonaded_leveled_wear_skew_cycles_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	if got := s.hSpares.Count(); got <= sparesBefore {
		t.Errorf("spares histogram count %d did not rise after stress (was %d)", got, sparesBefore)
	}
	if got := s.hWearSkew.Count(); got <= skewBefore {
		t.Errorf("wear-skew histogram count %d did not rise after stress (was %d)", got, skewBefore)
	}
}

// TestStressPlainArchitecture: stress works against unleveled hardware
// too (the attack does not require the defense), it just never remaps.
func TestStressPlainArchitecture(t *testing.T) {
	s, ts := testServer(t)
	pr := provisionGolden(t, ts.URL, 42)
	resp, body := postJSON(t, ts.URL+"/v1/architectures/"+pr.ID+"/stress", StressRequest{
		TempCelsius: 400, Indices: []int{0}, Pulses: 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stress plain: status %d: %s", resp.StatusCode, body)
	}
	var sr StressResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Remaps != 0 {
		t.Errorf("plain architecture reported %d remaps", sr.Remaps)
	}
	if sr.Stressed != 3 {
		t.Errorf("stressed = %d, want 3", sr.Stressed)
	}
	// Unleveled hardware observes nothing into the wear histograms.
	if n := s.hSpares.Count(); n != 0 {
		t.Errorf("plain architecture observed %d spares samples", n)
	}
	if n := s.hWearSkew.Count(); n != 0 {
		t.Errorf("plain architecture observed %d wear-skew samples", n)
	}
}

// TestWearMetricsCardinalityBounded: provisioning leveled architectures
// must not mint metric series per architecture. After the first leveled
// provision has created every series the route touches, ten thousand more
// leave the /metrics sample count unchanged.
func TestWearMetricsCardinalityBounded(t *testing.T) {
	h := New(Config{}).Handler()
	provision := func(seed uint64) {
		t.Helper()
		body, err := json.Marshal(ProvisionRequest{
			Spec: goldenSpec, SecretHex: goldenSecretHex, Seed: seed,
			Spares: 2, RemapEpoch: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/architectures", bytes.NewReader(body)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("provision seed %d: status %d: %s", seed, rec.Code, rec.Body)
		}
	}
	samples := func() int {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("metrics: status %d", rec.Code)
		}
		n := 0
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				n++
			}
		}
		return n
	}
	provision(1)
	want := samples()
	const keys = 10_000
	for seed := uint64(2); seed <= keys; seed++ {
		provision(seed)
	}
	if got := samples(); got != want {
		t.Errorf("/metrics has %d samples after %d leveled provisions, want %d (as after the first)", got, keys, want)
	}
}
