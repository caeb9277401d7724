package serve_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"parsel"
	"parsel/internal/serve"
	"parsel/parselclient"
)

// TestTenantReload pins the dynamic tenant configuration contract end
// to end over the admin endpoint: token rotation and budget changes
// apply without a restart, dropped tenants lose access immediately,
// surviving tenants keep their ledger (resident bytes, dataset counts,
// request counters) across the swap, and a failing source or an empty
// list leaves the previous configuration serving.
func TestTenantReload(t *testing.T) {
	var mu sync.Mutex
	current := []serve.Tenant{
		{Name: "acme", Token: "tok-a", MaxResidentBytes: 4096},
		{Name: "beta", Token: "tok-b"},
	}
	var srcErr error
	source := func() ([]serve.Tenant, error) {
		mu.Lock()
		defer mu.Unlock()
		if srcErr != nil {
			return nil, srcErr
		}
		return append([]serve.Tenant(nil), current...), nil
	}
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2}, serve.Options{
		Tenants:      current,
		TenantSource: source,
	})
	defer d.close()
	ctx := context.Background()

	acme := parselclient.New(d.ts.URL,
		parselclient.WithHTTPClient(d.ts.Client()), parselclient.WithToken("tok-a"))
	beta := parselclient.New(d.ts.URL,
		parselclient.WithHTTPClient(d.ts.Client()), parselclient.WithToken("tok-b"))
	if _, err := acme.Dataset("held").Upload(ctx, [][]int64{{9, 4}, {7}}); err != nil {
		t.Fatal(err)
	}
	if _, err := beta.Over([][]int64{{1, 2, 3}}).Median(ctx); err != nil {
		t.Fatal(err)
	}
	pre := d.server.Stats().Tenants["acme"]
	if pre.ResidentBytes == 0 || pre.Datasets != 1 {
		t.Fatalf("pre-reload acme ledger: %+v", pre)
	}

	// Rotate: acme gets a new token and a bigger budget, beta is
	// dropped, gamma appears. The old token authenticates the reload
	// itself — it is still live when the POST arrives.
	mu.Lock()
	current = []serve.Tenant{
		{Name: "acme", Token: "tok-a2", MaxResidentBytes: 8192},
		{Name: "gamma", Token: "tok-g"},
	}
	mu.Unlock()
	res, err := acme.ReloadTenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenants != 2 {
		t.Fatalf("reload applied %d tenants, want 2", res.Tenants)
	}

	// Old credentials die at once; the rotated and new ones work.
	if _, err := acme.Over([][]int64{{1}}).Median(ctx); !errors.Is(err, parselclient.ErrUnknownTenant) {
		t.Fatalf("rotated-away token: %v, want ErrUnknownTenant", err)
	}
	if _, err := beta.Over([][]int64{{1}}).Median(ctx); !errors.Is(err, parselclient.ErrUnknownTenant) {
		t.Fatalf("dropped tenant token: %v, want ErrUnknownTenant", err)
	}
	acme2 := parselclient.New(d.ts.URL,
		parselclient.WithHTTPClient(d.ts.Client()), parselclient.WithToken("tok-a2"))
	gamma := parselclient.New(d.ts.URL,
		parselclient.WithHTTPClient(d.ts.Client()), parselclient.WithToken("tok-g"))
	if _, err := gamma.Over([][]int64{{5, 2}}).Median(ctx); err != nil {
		t.Fatal(err)
	}

	// acme's resident dataset and its ledger crossed the reload intact,
	// under the new budget.
	info, err := acme2.Dataset("held").Info(ctx)
	if err != nil || info.Tenant != "acme" {
		t.Fatalf("resident dataset after reload: %+v, %v", info, err)
	}
	post := d.server.Stats().Tenants
	if a := post["acme"]; a.ResidentBytes != pre.ResidentBytes || a.Datasets != pre.Datasets ||
		a.Requests < pre.Requests || a.MaxResidentBytes != 8192 {
		t.Fatalf("acme ledger across reload: %+v, want bytes/datasets of %+v under budget 8192", a, pre)
	}
	if _, ok := post["beta"]; ok {
		t.Fatal("dropped tenant beta still in stats")
	}
	if g, ok := post["gamma"]; !ok || g.Datasets != 0 {
		t.Fatalf("gamma after reload: %+v", post["gamma"])
	}

	// A source failure answers 500 internal and keeps the previous
	// configuration serving.
	mu.Lock()
	srcErr = errors.New("tenants file vanished")
	mu.Unlock()
	var apiErr *parselclient.APIError
	if _, err := acme2.ReloadTenants(ctx); !errors.As(err, &apiErr) ||
		apiErr.Status != 500 || apiErr.Code != parselclient.CodeInternal {
		t.Fatalf("reload with broken source: %v, want 500 internal", err)
	}
	if _, err := acme2.Over([][]int64{{3}}).Median(ctx); err != nil {
		t.Fatalf("previous configuration stopped serving after failed reload: %v", err)
	}

	// An empty list is refused at the API level — a blank file must not
	// lock every tenant out.
	if err := d.server.ReloadTenants(nil); err == nil {
		t.Fatal("ReloadTenants(nil) accepted")
	}

	// GET is not a reload.
	status, eb := rawRequest(t, d, "GET", "/v1/admin/tenants/reload", "",
		map[string]string{"Authorization": "Bearer tok-a2"})
	if status != 405 || eb.Error.Code != parselclient.CodeMethodNotAllowed {
		t.Fatalf("GET reload: %d %+v", status, eb)
	}
}

// TestTenantReloadUnavailable pins the endpoint's absence contracts: a
// daemon without a TenantSource has no reload endpoint at all, and a
// tenantless daemon refuses ReloadTenants — tenancy cannot be toggled
// on at runtime.
func TestTenantReloadUnavailable(t *testing.T) {
	// Tenants but no source: 404, like any unknown path.
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2}, serve.Options{
		Tenants: []serve.Tenant{{Name: "acme", Token: "tok-a"}},
	})
	defer d.close()
	c := parselclient.New(d.ts.URL,
		parselclient.WithHTTPClient(d.ts.Client()), parselclient.WithToken("tok-a"))
	var apiErr *parselclient.APIError
	if _, err := c.ReloadTenants(context.Background()); !errors.As(err, &apiErr) ||
		apiErr.Status != 404 || apiErr.Code != parselclient.CodeNotFound {
		t.Fatalf("reload without TenantSource: %v, want 404 not_found", err)
	}

	// No tenants at all: the server API refuses to begin authenticating
	// mid-life.
	d2 := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2}, serve.Options{})
	defer d2.close()
	if err := d2.server.ReloadTenants([]serve.Tenant{{Name: "x", Token: "t"}}); err == nil {
		t.Fatal("tenantless daemon accepted a tenant reload")
	}
}
