/**
 * Crypto substrate tests: known-answer vectors for SHA-256, HMAC, AES and
 * AES-GCM (NIST/RFC test vectors), plus property tests for bignum/RSA.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "crypto/aes.h"
#include "crypto/bignum.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/kdf.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"

namespace nesgx::crypto {
namespace {

std::string
digestHex(const Sha256Digest& d)
{
    return toHex(ByteView(d.data(), d.size()));
}

// --- SHA-256 (FIPS 180-4 examples) -------------------------------------

TEST(Sha256, EmptyString)
{
    EXPECT_EQ(digestHex(Sha256::hash({})),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
    Bytes msg = bytesOf("abc");
    EXPECT_EQ(digestHex(Sha256::hash(msg)),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    Bytes msg = bytesOf("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
    EXPECT_EQ(digestHex(Sha256::hash(msg)),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 ctx;
    Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) ctx.update(chunk);
    EXPECT_EQ(digestHex(ctx.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    Bytes msg = bytesOf("the quick brown fox jumps over the lazy dog!");
    for (std::size_t split = 0; split <= msg.size(); ++split) {
        Sha256 ctx;
        ctx.update(ByteView(msg.data(), split));
        ctx.update(ByteView(msg.data() + split, msg.size() - split));
        EXPECT_EQ(ctx.finish(), Sha256::hash(msg)) << "split=" << split;
    }
}

// --- HMAC-SHA256 (RFC 4231) ---------------------------------------------

TEST(Hmac, Rfc4231Case1)
{
    Bytes key(20, 0x0b);
    Bytes data = bytesOf("Hi There");
    EXPECT_EQ(digestHex(hmacSha256(key, data)),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2)
{
    Bytes key = bytesOf("Jefe");
    Bytes data = bytesOf("what do ya want for nothing?");
    EXPECT_EQ(digestHex(hmacSha256(key, data)),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3LongKey)
{
    Bytes key(131, 0xaa);
    Bytes data = bytesOf("Test Using Larger Than Block-Size Key - Hash Key First");
    EXPECT_EQ(digestHex(hmacSha256(key, data)),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- AES (FIPS 197 appendix vectors) -------------------------------------

TEST(Aes, Fips197Aes128)
{
    Aes aes(fromHex("000102030405060708090a0b0c0d0e0f"));
    Bytes block = fromHex("00112233445566778899aabbccddeeff");
    aes.encryptBlock(block.data());
    EXPECT_EQ(toHex(block), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes, Fips197Aes256)
{
    Aes aes(fromHex(
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
    Bytes block = fromHex("00112233445566778899aabbccddeeff");
    aes.encryptBlock(block.data());
    EXPECT_EQ(toHex(block), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(Aes, RejectsBadKeySize)
{
    EXPECT_THROW(Aes(Bytes(17, 0)), std::invalid_argument);
    EXPECT_THROW(Aes(Bytes(0, 0)), std::invalid_argument);
}

TEST(AesCtr, RoundTripAllLengths)
{
    Aes aes(fromHex("2b7e151628aed2a6abf7158809cf4f3c"));
    AesBlock iv{};
    for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 64u, 100u}) {
        Bytes plain(len);
        for (std::size_t i = 0; i < len; ++i) plain[i] = std::uint8_t(i);
        Bytes cipher(len);
        aesCtrXcrypt(aes, iv, plain, cipher.data());
        Bytes back(len);
        aesCtrXcrypt(aes, iv, cipher, back.data());
        EXPECT_EQ(back, plain) << "len=" << len;
        if (len >= 16) {
            EXPECT_NE(cipher, plain);
        }
    }
}

// --- AES-GCM (NIST GCM spec test case 3/4) --------------------------------

TEST(AesGcm, NistCase3)
{
    AesGcm gcm(fromHex("feffe9928665731c6d6a8f9467308308"));
    Bytes iv = fromHex("cafebabefacedbaddecaf888");
    Bytes plain = fromHex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
    Bytes sealed = gcm.seal(iv, {}, plain);
    ASSERT_EQ(sealed.size(), plain.size() + kGcmTagSize);
    EXPECT_EQ(toHex(ByteView(sealed.data(), plain.size())),
              "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
              "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985");
    EXPECT_EQ(toHex(ByteView(sealed.data() + plain.size(), 16)),
              "4d5c2af327cd64a62cf35abd2ba6fab4");

    auto opened = gcm.open(iv, {}, sealed);
    ASSERT_TRUE(opened.isOk());
    EXPECT_EQ(opened.value(), plain);
}

TEST(AesGcm, NistCase4WithAad)
{
    AesGcm gcm(fromHex("feffe9928665731c6d6a8f9467308308"));
    Bytes iv = fromHex("cafebabefacedbaddecaf888");
    Bytes plain = fromHex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
    Bytes aad = fromHex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
    Bytes sealed = gcm.seal(iv, aad, plain);
    EXPECT_EQ(toHex(ByteView(sealed.data() + plain.size(), 16)),
              "5bc94fbc3221a5db94fae95ae7121a47");
    auto opened = gcm.open(iv, aad, sealed);
    ASSERT_TRUE(opened.isOk());
    EXPECT_EQ(opened.value(), plain);
}

TEST(AesGcm, TamperDetected)
{
    AesGcm gcm(Bytes(16, 0x11));
    Bytes iv(12, 0x22);
    Bytes plain = bytesOf("attack at dawn");
    Bytes sealed = gcm.seal(iv, {}, plain);

    Bytes corruptBody = sealed;
    corruptBody[0] ^= 1;
    EXPECT_FALSE(gcm.open(iv, {}, corruptBody).isOk());

    Bytes corruptTag = sealed;
    corruptTag.back() ^= 1;
    EXPECT_FALSE(gcm.open(iv, {}, corruptTag).isOk());

    Bytes wrongAad = sealed;
    EXPECT_FALSE(gcm.open(iv, bytesOf("x"), wrongAad).isOk());
}

TEST(AesGcm, EmptyPlaintext)
{
    AesGcm gcm(Bytes(16, 0));
    Bytes iv(12, 0);
    Bytes sealed = gcm.seal(iv, {}, {});
    EXPECT_EQ(sealed.size(), kGcmTagSize);
    EXPECT_TRUE(gcm.open(iv, {}, sealed).isOk());
}

TEST(AesGcm, NistCase15Aes256)
{
    AesGcm gcm(fromHex(
        "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308"));
    Bytes iv = fromHex("cafebabefacedbaddecaf888");
    Bytes plain = fromHex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
    Bytes sealed = gcm.seal(iv, {}, plain);
    EXPECT_EQ(toHex(ByteView(sealed.data(), plain.size())),
              "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
              "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad");
    EXPECT_EQ(toHex(ByteView(sealed.data() + plain.size(), 16)),
              "b094dac5d93471bdec1a502270e3cc6c");
    auto opened = gcm.open(iv, {}, sealed);
    ASSERT_TRUE(opened.isOk());
    EXPECT_EQ(opened.value(), plain);
}

// 20-byte AAD: one full GHASH block and a partial one.
TEST(AesGcm, NistCase16Aes256WithAad)
{
    AesGcm gcm(fromHex(
        "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308"));
    Bytes iv = fromHex("cafebabefacedbaddecaf888");
    Bytes plain = fromHex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
    Bytes aad = fromHex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
    Bytes sealed = gcm.seal(iv, aad, plain);
    EXPECT_EQ(toHex(ByteView(sealed.data(), plain.size())),
              "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
              "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662");
    EXPECT_EQ(toHex(ByteView(sealed.data() + plain.size(), 16)),
              "76fc6ece0f4e1768cddf8853bb2d551b");
    auto opened = gcm.open(iv, aad, sealed);
    ASSERT_TRUE(opened.isOk());
    EXPECT_EQ(opened.value(), plain);
}

// --- AES-GCM against a bit-serial reference --------------------------------

/** Reference GF(2^128) multiply, one bit per step (SP 800-38D Alg. 1). */
void
refGfMul(std::uint8_t x[16], const std::uint8_t y[16])
{
    std::uint64_t zh = 0, zl = 0;
    std::uint64_t vh = loadBe64(y);
    std::uint64_t vl = loadBe64(y + 8);
    for (int i = 0; i < 128; ++i) {
        if ((x[i / 8] >> (7 - i % 8)) & 1) {
            zh ^= vh;
            zl ^= vl;
        }
        bool lsb = vl & 1;
        vl = (vl >> 1) | (vh << 63);
        vh >>= 1;
        if (lsb) vh ^= 0xe100000000000000ull;
    }
    storeBe64(x, zh);
    storeBe64(x + 8, zl);
}

/** Reference GCM seal built from the block cipher, CTR and refGfMul. */
Bytes
refGcmSeal(ByteView key, ByteView iv, ByteView aad, ByteView plain)
{
    Aes aes(key);
    std::uint8_t h[16] = {};
    aes.encryptBlock(h);

    AesBlock j0{};
    std::memcpy(j0.data(), iv.data(), 12);
    j0[15] = 1;
    AesBlock ctr = j0;
    ctr[15] = 2;
    Bytes out(plain.size() + kGcmTagSize);
    aesCtrXcrypt(aes, ctr, plain, out.data());

    std::uint8_t s[16] = {};
    auto absorb = [&](ByteView data) {
        for (std::size_t off = 0; off < data.size(); off += 16) {
            for (std::size_t i = 0; i < 16 && off + i < data.size(); ++i) {
                s[i] ^= data[off + i];
            }
            refGfMul(s, h);
        }
    };
    absorb(aad);
    absorb(ByteView(out.data(), plain.size()));
    std::uint8_t lengths[16];
    storeBe64(lengths, std::uint64_t(aad.size()) * 8);
    storeBe64(lengths + 8, std::uint64_t(plain.size()) * 8);
    absorb(ByteView(lengths, 16));

    std::uint8_t ek0[16];
    std::memcpy(ek0, j0.data(), 16);
    aes.encryptBlock(ek0);
    for (int i = 0; i < 16; ++i) out[plain.size() + i] = s[i] ^ ek0[i];
    return out;
}

Bytes
patternBytes(std::size_t len, std::uint8_t seed)
{
    Bytes b(len);
    for (std::size_t i = 0; i < len; ++i) {
        b[i] = std::uint8_t(seed + 31 * i + (i >> 8));
    }
    return b;
}

TEST(AesGcm, MatchesBitSerialReference)
{
    Bytes iv = fromHex("000102030405060708090a0b");
    for (std::size_t keyLen : {16u, 32u}) {
        Bytes key = patternBytes(keyLen, 0x5a);
        AesGcm gcm(key);
        for (std::size_t aadLen = 0; aadLen <= 48; ++aadLen) {
            for (std::size_t len :
                 {0u, 1u, 15u, 16u, 17u, 63u, 64u, 65u, 4095u, 4096u, 4097u}) {
                Bytes aad = patternBytes(aadLen, 0xa5);
                Bytes plain = patternBytes(len, std::uint8_t(len));
                Bytes sealed = gcm.seal(iv, aad, plain);
                ASSERT_EQ(sealed, refGcmSeal(key, iv, aad, plain))
                    << "key=" << keyLen << " aad=" << aadLen
                    << " len=" << len;
                auto opened = gcm.open(iv, aad, sealed);
                ASSERT_TRUE(opened.isOk());
                EXPECT_EQ(opened.value(), plain);
            }
        }
    }
}

TEST(AesGcm, OpenRefusesEveryBitFlipOfAPage)
{
    AesGcm gcm(patternBytes(16, 0x77));
    Bytes iv(12, 0x09);
    Bytes aad = patternBytes(8, 0x01);
    Bytes sealed = gcm.seal(iv, aad, patternBytes(4096, 0x42));
    ASSERT_EQ(sealed.size(), 4096 + kGcmTagSize);
    // One flip in each 16-byte ciphertext block, walking the byte and bit
    // lanes, then one in every tag byte.
    std::vector<std::size_t> flips;
    for (std::size_t block = 0; block < 4096 / 16; ++block) {
        flips.push_back(16 * block + block % 16);
    }
    for (std::size_t i = 4096; i < sealed.size(); ++i) flips.push_back(i);
    for (std::size_t pos : flips) {
        Bytes corrupt = sealed;
        corrupt[pos] ^= std::uint8_t(1u << (pos % 8));
        EXPECT_FALSE(gcm.open(iv, aad, corrupt).isOk()) << "byte=" << pos;
    }
}

// --- BigUint ---------------------------------------------------------------

TEST(BigUint, BasicArithmetic)
{
    BigUint a(1000000007ull), b(998244353ull);
    EXPECT_EQ((a + b).toHex(), BigUint(1998244360ull).toHex());
    EXPECT_EQ((a - b).toHex(), BigUint(1755654ull).toHex());
    EXPECT_EQ((a * b).toHex(), BigUint(998244359987710471ull).toHex());
    EXPECT_EQ((a % b).toHex(), BigUint(1755654ull).toHex());
    EXPECT_EQ((a / b).toHex(), BigUint(1).toHex());
}

TEST(BigUint, ByteRoundTrip)
{
    Bytes wire = fromHex("0123456789abcdef00fedcba98");
    BigUint v = BigUint::fromBytesBe(wire);
    EXPECT_EQ(toHex(v.toBytesBe()), "0123456789abcdef00fedcba98");
    EXPECT_EQ(v.toBytesBe(16).size(), 16u);
}

TEST(BigUint, ShiftsAndBits)
{
    BigUint one(1);
    BigUint big = one << 100;
    EXPECT_EQ(big.bitLength(), 101u);
    EXPECT_TRUE(big.bit(100));
    EXPECT_FALSE(big.bit(99));
    EXPECT_EQ(((big >> 100)).toHex(), one.toHex());
}

TEST(BigUint, DivModProperty)
{
    Rng rng(99);
    for (int i = 0; i < 30; ++i) {
        BigUint a = BigUint::randomBits(rng, 192);
        BigUint b = BigUint::randomBits(rng, 80);
        BigUint q = a / b;
        BigUint r = a % b;
        EXPECT_TRUE(r < b);
        EXPECT_EQ((q * b + r).toHex(), a.toHex());
    }
}

TEST(BigUint, PowModSmall)
{
    // 3^200 mod 1000000007 computed independently.
    BigUint base(3), mod(1000000007ull);
    BigUint e(200);
    BigUint r = base.powMod(e, mod);
    // Verify against iterative computation.
    std::uint64_t expect = 1;
    for (int i = 0; i < 200; ++i) expect = expect * 3 % 1000000007ull;
    EXPECT_EQ(r.toHex(), BigUint(expect).toHex());
}

TEST(BigUint, InvModProperty)
{
    Rng rng(4);
    BigUint mod = BigUint::generatePrime(rng, 64);
    for (int i = 0; i < 10; ++i) {
        BigUint a = BigUint::randomBits(rng, 60);
        BigUint inv = a.invMod(mod);
        EXPECT_EQ(a.mulMod(inv, mod).toHex(), BigUint(1).toHex());
    }
}

TEST(BigUint, PrimalityKnownValues)
{
    Rng rng(8);
    EXPECT_TRUE(BigUint(2).isProbablyPrime(rng));
    EXPECT_TRUE(BigUint(65537).isProbablyPrime(rng));
    EXPECT_TRUE(BigUint(1000000007ull).isProbablyPrime(rng));
    EXPECT_FALSE(BigUint(1).isProbablyPrime(rng));
    EXPECT_FALSE(BigUint(65536).isProbablyPrime(rng));
    EXPECT_FALSE(BigUint(1000000008ull).isProbablyPrime(rng));
    // Carmichael number 561 = 3*11*17 must be rejected.
    EXPECT_FALSE(BigUint(561).isProbablyPrime(rng));
}

// --- RSA ---------------------------------------------------------------------

class RsaFixture : public ::testing::Test {
  protected:
    static void SetUpTestSuite()
    {
        Rng rng(2024);
        key_ = new RsaKeyPair(RsaKeyPair::generate(rng, 512));
    }
    static void TearDownTestSuite()
    {
        delete key_;
        key_ = nullptr;
    }
    static RsaKeyPair* key_;
};

RsaKeyPair* RsaFixture::key_ = nullptr;

TEST_F(RsaFixture, SignVerifyRoundTrip)
{
    Bytes msg = bytesOf("measurement of an enclave");
    Bytes sig = rsaSign(*key_, msg);
    EXPECT_EQ(sig.size(), key_->pub.modulusBytes());
    EXPECT_TRUE(rsaVerify(key_->pub, msg, sig));
}

TEST_F(RsaFixture, RejectsWrongMessage)
{
    Bytes sig = rsaSign(*key_, bytesOf("hello"));
    EXPECT_FALSE(rsaVerify(key_->pub, bytesOf("hellx"), sig));
}

TEST_F(RsaFixture, RejectsTamperedSignature)
{
    Bytes msg = bytesOf("hello");
    Bytes sig = rsaSign(*key_, msg);
    sig[sig.size() / 2] ^= 0x40;
    EXPECT_FALSE(rsaVerify(key_->pub, msg, sig));
}

TEST_F(RsaFixture, RejectsWrongKey)
{
    Rng rng(77);
    RsaKeyPair other = RsaKeyPair::generate(rng, 512);
    Bytes msg = bytesOf("hello");
    Bytes sig = rsaSign(*key_, msg);
    EXPECT_FALSE(rsaVerify(other.pub, msg, sig));
}

TEST_F(RsaFixture, SignerMeasurementStable)
{
    auto m1 = key_->pub.signerMeasurement();
    auto m2 = key_->pub.signerMeasurement();
    EXPECT_EQ(m1, m2);
    Rng rng(78);
    RsaKeyPair other = RsaKeyPair::generate(rng, 512);
    EXPECT_NE(toHex(ByteView(m1.data(), 32)),
              toHex(ByteView(other.pub.signerMeasurement().data(), 32)));
}

// --- KDF ----------------------------------------------------------------------

TEST(Kdf, LabelsSeparateKeys)
{
    Bytes root(32, 0x5a);
    Bytes ctx = bytesOf("ctx");
    auto a = deriveKey256(root, "report-key", ctx);
    auto b = deriveKey256(root, "seal-key", ctx);
    EXPECT_NE(digestHex(a), digestHex(b));
}

TEST(Kdf, ContextSeparatesKeys)
{
    Bytes root(32, 0x5a);
    auto a = deriveKey256(root, "report-key", bytesOf("enclave-a"));
    auto b = deriveKey256(root, "report-key", bytesOf("enclave-b"));
    EXPECT_NE(digestHex(a), digestHex(b));
}

TEST(Kdf, Deterministic)
{
    Bytes root(32, 1);
    auto a = deriveKey128(root, "x", bytesOf("y"));
    auto b = deriveKey128(root, "x", bytesOf("y"));
    EXPECT_EQ(toHex(ByteView(a.data(), 16)), toHex(ByteView(b.data(), 16)));
}

}  // namespace
}  // namespace nesgx::crypto
