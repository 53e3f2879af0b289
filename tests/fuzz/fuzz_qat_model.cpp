/// \file fuzz_qat_model.cpp
/// Fuzz harness for the QAT model deserializer (quant/qat_io).  Same
/// contract as fuzz_nn_model: any byte string either parses into a
/// validated SavedQatModel or returns nullopt — no throw, no crash, no
/// unvalidated allocation.
///
/// This harness is the one that found the FakeQuant range bug fixed in
/// qat_io.cpp: a corrupt kFakeQuant payload with lo > hi (or NaN)
/// reached FakeQuant::set_range, whose always-on contract threw
/// ContractViolation out of the loader.  The regression is pinned as a
/// deterministic unit test in tests/quant/qat_io_test.cpp; this
/// harness keeps the whole format surface covered.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "quant/qat_io.hpp"
#include "resign.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  (void)adapt::quant::load_qat_model_from_bytes(bytes);
  // The same bytes behind a valid footer reach the layer parser.
  if (const auto signed_bytes = adapt::fuzz::resigned(bytes))
    (void)adapt::quant::load_qat_model_from_bytes(*signed_bytes);
  return 0;
}
