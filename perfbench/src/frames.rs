//! A `VideoSource` over frames rendered before the clock starts, so that
//! procedural rendering and attack synthesis never land inside extraction
//! timings.

use s3_video::{Frame, VideoSource};

pub struct FrameVideo {
    width: usize,
    height: usize,
    frames: Vec<Frame>,
}

impl FrameVideo {
    /// Renders every frame of `src` once.
    pub fn render(src: &impl VideoSource) -> FrameVideo {
        FrameVideo {
            width: src.width(),
            height: src.height(),
            frames: (0..src.len()).map(|t| src.frame(t)).collect(),
        }
    }

    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }
}

impl VideoSource for FrameVideo {
    fn width(&self) -> usize {
        self.width
    }

    fn height(&self) -> usize {
        self.height
    }

    fn len(&self) -> usize {
        self.frames.len()
    }

    fn frame(&self, t: usize) -> Frame {
        self.frames[t].clone()
    }
}
