/// \file fuzz_nn_model.cpp
/// Fuzz harness for the model deserializer (quant/serialize) — the
/// loader that parses ground-produced model files on the flight side,
/// i.e. the classic untrusted-input surface.  One format carries both
/// FP32 and calibrated QAT stacks, and corpus/nn_model/ seeds both.
/// The contract under test: for ANY byte string, load_model_from_bytes
/// either returns a fully validated model or nullopt.  It must never
/// throw (ContractViolation included), never crash, and never size an
/// allocation from an unvalidated header count (ASan + the container's
/// memory limit catch the latter).
///
/// Fuzzing the QAT layers found the FakeQuant range bug: a corrupt
/// range with lo > hi (or NaN) reached FakeQuant::set_range, whose
/// always-on contract threw ContractViolation out of the loader.  The
/// regression is pinned as deterministic unit tests in
/// tests/quant/qat_serialize_test.cpp.
///
/// Built two ways (tests/fuzz/CMakeLists.txt): with Clang as a real
/// libFuzzer target (-fsanitize=fuzzer), otherwise with the standalone
/// driver_main.cpp, which replays the checked-in corpus and runs
/// deterministic seeded mutations of it — that is what the
/// `fuzz-smoke` gate stage runs under GCC+ASan.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "quant/serialize.hpp"
#include "resign.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  // The return value is intentionally ignored: accepting OR rejecting
  // is fine, surviving is the property.
  (void)adapt::quant::load_model_from_bytes(bytes);
  // The same bytes behind a valid footer reach the layer parser.
  if (const auto signed_bytes = adapt::fuzz::resigned(bytes))
    (void)adapt::quant::load_model_from_bytes(*signed_bytes);
  return 0;
}
