//! Image-processing operators used by the feature extractors.

pub mod canny;
pub mod convolve;
pub mod equalize;
pub mod gaussian;
pub mod integral;
pub mod label;
pub mod morphology;
pub mod resize;
pub mod sobel;
pub mod threshold;
pub mod transform;

pub use canny::{canny, canny_default, CannyParams};
pub use convolve::{convolve, convolve_separable, Kernel};
pub use equalize::equalize;
pub use gaussian::{gaussian_blur, gaussian_blur_gray, gaussian_kernel_1d};
pub use integral::IntegralImage;
pub use label::{
    connected_components, nonzero_bits, row_runs, Connectivity, Labeling, Region, Run,
};
pub use morphology::{close, dilate, erode, open, Structuring};
pub use resize::{
    bilinear_sample, bilinear_sample_dyadic, resize_bilinear_gray, resize_bilinear_rgb,
    resize_bilinear_rgb_into, resize_nearest, ResizeScratch,
};
pub use sobel::{
    edge_density, edge_map, magnitude_into, orientation_bin, orientation_bins_into, sobel,
    sobel_into, sobel_magnitude, GradientField, SOBEL_MAGNITUDE_MAX,
};
pub use threshold::{adaptive_mean_threshold, gray_histogram, otsu_level, threshold};
pub use transform::{flip_horizontal, flip_vertical, rotate180, rotate270, rotate90};
