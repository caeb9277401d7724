package parsel

import (
	"cmp"
	"reflect"
	"runtime"
	"sync"
)

// The package-level queries (Run, and the Verbs of Over) route
// through a process-wide set of shared default pools, one per (Options,
// key type) pair, instead of building and tearing a simulated machine
// down on every call. Two
// concurrent package-level calls with the same Options therefore reuse
// resident machines exactly like two clients of an explicit Pool, and a
// sequence of calls pays machine construction only once.
//
// The shared pools are never closed: they are process-wide
// infrastructure, bounded at defaultPoolMachines resident machines
// each, and their parked goroutines are reclaimed by the runtime at
// exit. The cache itself is bounded too (maxDefaultPools): a caller
// that varies Options per call (say, a fresh Seed per request) does
// not pin machines per distinct value — beyond the cap, queries fall
// back to a private throwaway pool torn down after the call, the
// pre-cache behavior. Callers that want explicit lifecycle control (or
// a different capacity) should construct their own Pool or Selector.

// defaultPoolMachines is the MaxMachines of each shared default pool:
// at least 4, growing with the host's parallelism so concurrent
// package-level callers on a big machine are not serialized behind an
// arbitrary cap. (Calls beyond the cap wait for a machine; heavy
// concurrent serving should size its own Pool.)
var defaultPoolMachines = max(4, runtime.GOMAXPROCS(0))

// maxDefaultPools caps how many distinct (Options, key type) pools the
// process will keep resident.
const maxDefaultPools = 64

// defaultPoolKey identifies one shared pool. Options is comparable
// (scalars only, none of them floats, so every key equals itself and is
// found again), and the key type is included because Pool is generic.
type defaultPoolKey struct {
	opts Options
	typ  reflect.Type
}

var (
	defaultPoolsMu sync.Mutex
	defaultPools   = make(map[defaultPoolKey]any) // defaultPoolKey -> *Pool[K]
)

// defaultPool returns a pool for (opts, K) plus a release func the
// caller must call after its query. Usually that is the shared
// resident pool (release is a no-op); past maxDefaultPools distinct
// Options it is a private single-machine pool that release tears down,
// which is exactly the old throwaway-Selector behavior.
func defaultPool[K cmp.Ordered](opts Options) (*Pool[K], func(), error) {
	key := defaultPoolKey{opts: opts, typ: reflect.TypeFor[K]()}
	defaultPoolsMu.Lock()
	if p, ok := defaultPools[key]; ok {
		defaultPoolsMu.Unlock()
		return p.(*Pool[K]), func() {}, nil
	}
	if len(defaultPools) < maxDefaultPools {
		pl, err := NewPool[K](opts, PoolOptions{MaxMachines: defaultPoolMachines})
		if err != nil {
			defaultPoolsMu.Unlock()
			return nil, nil, err
		}
		defaultPools[key] = pl
		defaultPoolsMu.Unlock()
		return pl, func() {}, nil
	}
	defaultPoolsMu.Unlock()
	pl, err := NewPool[K](opts, PoolOptions{MaxMachines: 1})
	if err != nil {
		return nil, nil, err
	}
	return pl, pl.Close, nil
}
