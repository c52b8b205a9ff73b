package gen

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cognicryptgen/internal/srccheck"
	"cognicryptgen/rules"
	"cognicryptgen/templates"
)

// TestGeneratedCodeRoundTrips is the repository's deepest end-to-end
// check: it generates all eleven use cases, assembles them into a scratch
// module that depends on this one, adds behavioural round-trip tests
// (encrypt→decrypt, sign→verify, hash→compare), and runs `go test` on the
// result. This exercises the paper's RQ1 claim end to end: the generated
// code not only compiles but actually performs its cryptographic job.
func TestGeneratedCodeRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping subprocess go test in -short mode")
	}
	root, err := srccheck.ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(rules.MustLoad(), "", Options{Verify: false, PackageName: "generated"})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	gomod := fmt.Sprintf(`module rtcheck

go 1.24

require cognicryptgen v0.0.0-00010101000000-000000000000

replace cognicryptgen => %s
`, root)
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgDir := filepath.Join(dir, "generated")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	all := templates.All()
	for _, uc := range all {
		src, err := templates.Source(uc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.GenerateFile(uc.File, src)
		if err != nil {
			t.Fatalf("use case %d (%s): %v", uc.ID, uc.Name, err)
		}
		// TemplateUsage collides across files in one package; suffix it.
		out := strings.ReplaceAll(res.Output, "TemplateUsage", fmt.Sprintf("UsageUC%d", uc.ID))
		if err := os.WriteFile(filepath.Join(pkgDir, uc.File), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(pkgDir, "rt_test.go"), []byte(roundTripTests), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command("go", "test", "./generated/")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=-mod=mod")
	outBytes, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("generated-code test run failed: %v\n%s", err, outBytes)
	}
	t.Logf("subprocess go test:\n%s", outBytes)
}

const roundTripTests = `package generated

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"
)

func TestUC1PBEFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "secret.txt")
	plain := []byte("attack at dawn")
	if err := os.WriteFile(path, plain, 0o600); err != nil { t.Fatal(err) }
	e := &PBEFileEncryptor{}
	if err := e.EncryptFile(path, []rune("hunter2hunter2")); err != nil { t.Fatal(err) }
	enc, _ := os.ReadFile(path)
	if bytes.Contains(enc, plain) { t.Fatal("ciphertext leaks plaintext") }
	if err := e.DecryptFile(path, []rune("hunter2hunter2")); err != nil { t.Fatal(err) }
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, plain) { t.Fatalf("round trip mismatch: %q", got) }
}

func TestUC2PBEStrings(t *testing.T) {
	e := &PBEStringEncryptor{}
	ct, err := e.Encrypt("s3cret message", []rune("correct horse"))
	if err != nil { t.Fatal(err) }
	pt, err := e.Decrypt(ct, []rune("correct horse"))
	if err != nil { t.Fatal(err) }
	if pt != "s3cret message" { t.Fatalf("round trip mismatch: %q", pt) }
	if _, err := e.Decrypt(ct, []rune("wrong password")); err == nil {
		t.Fatal("decryption with wrong password must fail (GCM auth)")
	}
}

func TestUC3PBEBytes(t *testing.T) {
	e := &PBEByteArrayEncryptor{}
	key, salt, err := e.GetKey([]rune("pass phrase"))
	if err != nil { t.Fatal(err) }
	key2, err := e.GetKeyWithSalt([]rune("pass phrase"), salt)
	if err != nil { t.Fatal(err) }
	if !bytes.Equal(key.Encoded(), key2.Encoded()) { t.Fatal("salted re-derivation differs") }
	ct, err := e.Encrypt([]byte("payload"), key)
	if err != nil { t.Fatal(err) }
	pt, err := e.Decrypt(ct, key2)
	if err != nil { t.Fatal(err) }
	if string(pt) != "payload" { t.Fatalf("round trip mismatch: %q", pt) }
}

func TestUC4Symmetric(t *testing.T) {
	e := &SymmetricEncryptor{}
	key, err := e.GenerateKey()
	if err != nil { t.Fatal(err) }
	ct, err := e.Encrypt([]byte("symmetric payload"), key)
	if err != nil { t.Fatal(err) }
	pt, err := e.Decrypt(ct, key)
	if err != nil { t.Fatal(err) }
	if string(pt) != "symmetric payload" { t.Fatalf("round trip mismatch: %q", pt) }
}

func TestUC5HybridFile(t *testing.T) {
	e := &HybridFileEncryptor{}
	kp, err := e.GenerateKeyPair()
	if err != nil { t.Fatal(err) }
	path := filepath.Join(t.TempDir(), "doc.bin")
	plain := bytes.Repeat([]byte("hybrid!"), 100)
	if err := os.WriteFile(path, plain, 0o600); err != nil { t.Fatal(err) }
	wrapped, err := e.EncryptFile(path, kp.Public())
	if err != nil { t.Fatal(err) }
	if err := e.DecryptFile(path, wrapped, kp.Private()); err != nil { t.Fatal(err) }
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, plain) { t.Fatal("hybrid file round trip mismatch") }
}

func TestUC6HybridString(t *testing.T) {
	e := &HybridStringEncryptor{}
	kp, err := e.GenerateKeyPair()
	if err != nil { t.Fatal(err) }
	ct, err := e.Encrypt("hybrid string payload", kp.Public())
	if err != nil { t.Fatal(err) }
	pt, err := e.Decrypt(ct, kp.Private())
	if err != nil { t.Fatal(err) }
	if pt != "hybrid string payload" { t.Fatalf("round trip mismatch: %q", pt) }
}

func TestUC7HybridBytes(t *testing.T) {
	e := &HybridByteArrayEncryptor{}
	kp, err := e.GenerateKeyPair()
	if err != nil { t.Fatal(err) }
	plain := bytes.Repeat([]byte{0xAB}, 4096)
	ct, wrapped, err := e.Encrypt(plain, kp.Public())
	if err != nil { t.Fatal(err) }
	pt, err := e.Decrypt(ct, wrapped, kp.Private())
	if err != nil { t.Fatal(err) }
	if !bytes.Equal(pt, plain) { t.Fatal("hybrid bytes round trip mismatch") }
}

func TestUC8AsymString(t *testing.T) {
	e := &AsymmetricStringEncryptor{}
	kp, err := e.GenerateKeyPair()
	if err != nil { t.Fatal(err) }
	ct, err := e.Encrypt("short secret", kp.Public())
	if err != nil { t.Fatal(err) }
	pt, err := e.Decrypt(ct, kp.Private())
	if err != nil { t.Fatal(err) }
	if pt != "short secret" { t.Fatalf("round trip mismatch: %q", pt) }
}

func TestUC9PasswordStorage(t *testing.T) {
	s := &PasswordStorage{}
	stored, err := s.Hash([]rune("tr0ub4dor&3"))
	if err != nil { t.Fatal(err) }
	ok, err := s.Verify([]rune("tr0ub4dor&3"), stored)
	if err != nil { t.Fatal(err) }
	if !ok { t.Fatal("correct password rejected") }
	ok, err = s.Verify([]rune("letmein"), stored)
	if err != nil { t.Fatal(err) }
	if ok { t.Fatal("wrong password accepted") }
}

func TestUC10Signing(t *testing.T) {
	s := &StringSigner{}
	kp, err := s.GenerateKeyPair()
	if err != nil { t.Fatal(err) }
	sig, err := s.Sign("release v1.2.3", kp)
	if err != nil { t.Fatal(err) }
	ok, err := s.Verify("release v1.2.3", sig, kp)
	if err != nil { t.Fatal(err) }
	if !ok { t.Fatal("valid signature rejected") }
	ok, err = s.Verify("release v1.2.4", sig, kp)
	if err != nil { t.Fatal(err) }
	if ok { t.Fatal("tampered message accepted") }
}

func TestUC12MacExtension(t *testing.T) {
	m := &MessageAuthenticator{}
	key, err := m.GenerateKey()
	if err != nil { t.Fatal(err) }
	tag, err := m.Authenticate([]byte("message"), key)
	if err != nil { t.Fatal(err) }
	ok, err := m.VerifyTag([]byte("message"), tag, key)
	if err != nil { t.Fatal(err) }
	if !ok { t.Fatal("valid tag rejected") }
	ok, err = m.VerifyTag([]byte("Message"), tag, key)
	if err != nil { t.Fatal(err) }
	if ok { t.Fatal("tampered message accepted") }
}

func TestUC13KeyStoreExtension(t *testing.T) {
	v := &KeyVault{}
	path := filepath.Join(t.TempDir(), "vault.ks")
	key, err := v.CreateMasterKey(path, []rune("vault password"))
	if err != nil { t.Fatal(err) }
	got, err := v.LoadMasterKey(path, []rune("vault password"))
	if err != nil { t.Fatal(err) }
	if !bytes.Equal(got.Encoded(), key.Encoded()) { t.Fatal("loaded key differs") }
	if _, err := v.LoadMasterKey(path, []rune("wrong")); err == nil {
		t.Fatal("wrong password opened the vault")
	}
}

func TestUC11Hashing(t *testing.T) {
	h := &StringHasher{}
	got, err := h.Hash("abc")
	if err != nil { t.Fatal(err) }
	want := sha256.Sum256([]byte("abc"))
	if !bytes.Equal(got, want[:]) { t.Fatalf("digest mismatch: %x", got) }
}
`
