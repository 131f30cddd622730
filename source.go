package ftrouting

// The unified scheme-source API: one reference string — a file path, a
// manifest directory, or an http(s) URL — resolves into a typed Source
// holding either a monolithic loaded scheme or a manifest bound to a
// blob store. Every consumer (`ftroute serve`/`query`/`proxy`, the
// serving tiers' tests) opens its input through here, so the
// scheme-vs-manifest and local-vs-remote distinctions are decided once,
// by the artifact's own header and the reference's shape, never by the
// caller. A URL reference makes the remote backend the shard store: a
// replica opened from `https://host/build/` holds nothing on local disk
// at all — the manifest is fetched, and shards are fetched (and
// checksum/digest-verified) on demand.

import (
	"bufio"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"ftrouting/internal/blob"
	"ftrouting/internal/codec"
)

// Source is one resolved scheme reference: exactly one of Scheme
// (monolithic) or Manifest (sharded, bound to its blob store) is
// non-nil.
type Source struct {
	ref      string
	scheme   any
	manifest *Manifest
}

// Ref returns the resolved reference: the file the artifact was read
// from (a directory reference resolves to its manifest.ftm) or the URL
// it was fetched from.
func (s *Source) Ref() string { return s.ref }

// Scheme returns the monolithic scheme (*ConnLabels, *DistLabels or
// *Router), or nil when the source is a manifest.
func (s *Source) Scheme() any { return s.scheme }

// Manifest returns the shard manifest, or nil when the source is a
// monolithic scheme. The manifest's store already points at the
// reference's backend (directory or URL); SetStore overrides it.
func (s *Source) Manifest() *Manifest { return s.manifest }

// OpenOptions tunes Open's remote fetching; the zero value uses the
// blob package's defaults. Local references ignore it.
type OpenOptions struct {
	// Fetch configures the HTTP store URL references resolve to:
	// per-attempt timeout, retry budget, backoff shape, http.Client.
	Fetch blob.HTTPOptions
}

// Open resolves ref — a scheme file, a manifest file, a manifest
// directory, or an http(s) URL of any of those — into a Source,
// dispatching on the artifact-kind header rather than the caller's
// declaration. Open(ref) is OpenWith(ref, OpenOptions{}).
func Open(ref string) (*Source, error) { return OpenWith(ref, OpenOptions{}) }

// OpenWith is Open with explicit remote-fetch options. The reference
// resolves to a blob store and a name in it; the artifact header is read
// once, and its kind picks the manifest or the scheme body decoder. A
// manifest keeps the store: its shards resolve against the same
// directory or URL base.
func OpenWith(ref string, opts OpenOptions) (*Source, error) {
	var store blob.Store
	var name string
	var err error
	if strings.HasPrefix(ref, "http://") || strings.HasPrefix(ref, "https://") {
		ref, store, name, err = resolveURL(ref, opts)
	} else {
		ref, store, name, err = resolvePath(ref)
	}
	if err != nil {
		return nil, err
	}
	r, err := store.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	cr := codec.NewReader(bufio.NewReader(io.NewSectionReader(r, 0, r.Size())))
	kind, err := codec.ReadHeaderAny(cr)
	if err != nil {
		return nil, fmt.Errorf("%s: reading artifact header: %w", ref, err)
	}
	src := &Source{ref: ref}
	if kind != codec.KindManifest {
		src.scheme, err = decodeScheme(cr, kind)
	} else if src.manifest, err = decodeManifest(cr); err == nil {
		src.manifest.SetStore(store)
	}
	if err != nil {
		return nil, err
	}
	return src, nil
}

// resolvePath resolves a local reference: directories resolve to their
// manifest.ftm, and the store is the file's directory.
func resolvePath(path string) (string, blob.Store, string, error) {
	st, err := os.Stat(path)
	if err != nil {
		return "", nil, "", err
	}
	if st.IsDir() {
		path = filepath.Join(path, ManifestFileName)
	}
	return path, blob.NewDir(filepath.Dir(path)), filepath.Base(path), nil
}

// resolveURL resolves a remote reference to an HTTP blob store rooted at
// the URL's parent. The last path segment names the blob; a URL ending
// in "/" (or with no path) names a manifest directory, so manifest.ftm is
// fetched from under it.
func resolveURL(ref string, opts OpenOptions) (string, blob.Store, string, error) {
	u, err := url.Parse(ref)
	if err != nil {
		return "", nil, "", fmt.Errorf("ftrouting: bad source URL %q: %w", ref, err)
	}
	if u.RawQuery != "" || u.Fragment != "" {
		return "", nil, "", fmt.Errorf("ftrouting: source URL %q must not carry a query or fragment", ref)
	}
	base, name := strings.TrimSuffix(ref, "/"), ""
	if u.Path != "" && !strings.HasSuffix(u.Path, "/") {
		i := strings.LastIndex(ref, "/")
		base, name = ref[:i], ref[i+1:]
		if name, err = url.PathUnescape(name); err != nil {
			return "", nil, "", fmt.Errorf("ftrouting: bad source URL %q: %w", ref, err)
		}
	}
	if name == "" {
		name = ManifestFileName
		ref = base + "/" + name
	}
	store, err := blob.NewHTTP(base, opts.Fetch)
	if err != nil {
		return "", nil, "", err
	}
	return ref, store, name, nil
}
