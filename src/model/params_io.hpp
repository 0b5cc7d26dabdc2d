// Export of calibrated model parameters in the amp1 text format: the
// calibrate response embeds it and examples/calibrate_machine writes it to a
// file, so a calibration can be archived or diffed. amp1 is export-only: the
// library has no reader for it.
//
// Format: a self-describing line-oriented text file ("amp1" header), fields
// only ever appended. Doubles carry 17 significant digits and matrices are
// stored row-major; tests/model/params_io_test.cpp pins the exact bytes.
#pragma once

#include <iosfwd>
#include <string>

#include "model/params.hpp"

namespace am::model {

/// Serializes @p params into the amp1 text format.
void save_params(const ModelParams& params, std::ostream& out);

/// Writes save_params() output to @p path; false on I/O failure.
bool save_params_file(const ModelParams& params, const std::string& path);

}  // namespace am::model
